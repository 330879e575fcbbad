import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fewbody import cli
from fewbody import faddeev as fd
from fewbody import twobody as tb
from fewbody import variational as vr
from fewbody.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ResultStore,
    emit_csv,
    main,
    parse_config,
)

MINIMAL = """\
[model]
pair12.kind = gaussian
pair12.depth = 1.0
pair12.range = 1.0
lambda12 = 1.0
"""

FULL = """\
[model]
m1 = 1.0
m2 = 1.0
m3 = 1.0
pair12.kind = gaussian
pair13.kind = gaussian
pair23.kind = gaussian
lambda12 = 2.1472
lambda13 = 2.1472
lambda23 = 2.1472
margin_epsilon = 0.2

[numerics]
basis.scale_max_y = 60.0
basis.n_y = 8
basis.n_x = 6

[experiment]
scale_grid = 0.5,0.9
k_list = 1e-2,1e-3
"""


def set_keys(text: str, section: str, **values) -> str:
    """text with each key = value of values set first in section, its old line dropped."""
    for key, value in values.items():
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith(f"{key} ="))
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    return text


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "model.cfg"
    p.write_text(FULL)
    return p


class TestParseConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text(MINIMAL)
        cfg = parse_config(p)
        assert cfg.model.masses.m1 == 1.0
        assert cfg["numerics", "radial_nodes"] == 64
        assert cfg.raw[("numerics", "radial_nodes")] == "64"
        buf = io.StringIO()
        cfg.echo(buf)
        assert "[model]" in buf.getvalue() and "radial_nodes = 64" in buf.getvalue()

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("[model]\nspin = 1\n")
        with pytest.raises(ConfigError, match="unknown key model.spin"):
            parse_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("[magic]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_config(p)

    def test_negative_depth_names_key(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("[model]\npair12.kind = gaussian\npair12.depth = -2\n")
        with pytest.raises(ConfigError, match="pair12"):
            parse_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_hash_tracks_physics_keys(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(FULL)
        b.write_text(FULL.replace("lambda12 = 2.1472", "lambda12 = 2.2"))
        assert parse_config(a).config_hash() != parse_config(b).config_hash()
        c = tmp_path / "c.cfg"
        c.write_text(FULL)
        assert parse_config(a).config_hash() == parse_config(c).config_hash()


# numerics keys that changed no number and were removed: naming one is a config error
REMOVED_KEYS = {"momentum_nodes", "threshold_tol"}


class TestConfigValues:
    # every value is converted when the config is parsed, whether or not the
    # subcommand (here checks merkuriev) reads it
    @pytest.mark.parametrize("section,key,value", [
        ("experiment", "k_list", "0.1,x"),
        ("experiment", "theta_bracket", "x"),
        ("experiment", "scale_bracket", "0.9,x"),
        ("experiment", "energy_targets", "x"),
        ("experiment", "envelope_b1", "x"),
        ("experiment", "envelope_b2", "x"),
        ("experiment", "r0", "x"),
        ("experiment", "floor", "x"),
        ("experiment", "ceiling_factor", "x"),
        ("numerics", "threshold_tol", "x"),
        ("numerics", "resonance_tol", "x"),
        ("numerics", "seed", "x"),
        ("numerics", "radial_nodes", "x"),
        ("numerics", "basis.correlations", "0.1,x"),
    ])
    def test_non_number_exits_config(self, tmp_path, capsys, section, key, value):
        self.assert_config_error(tmp_path, capsys, section, key, value)

    # nan and +-inf, scalar or list entry, at parse time or in the subcommand
    @pytest.mark.parametrize("section,key,value", [
        ("experiment", "radii", "-5,nan,10"),
        ("experiment", "z_list", "nan,1e-2"),
        ("experiment", "k_list", "1e-2,-inf"),
        ("experiment", "r0", "inf"),
        ("numerics", "threshold_tol", "nan"),
        ("numerics", "basis.scale_min_x", "inf"),
        ("numerics", "basis.correlations", "0.1,nan"),
    ])
    def test_non_finite_exits_config(self, tmp_path, capsys, section, key, value):
        err = self.assert_config_error(tmp_path, capsys, section, key, value)
        # a removed key is refused whatever its value
        word = f"unknown key {section}.{key}" if key in REMOVED_KEYS else "not a finite number"
        assert word in err

    @pytest.mark.parametrize("section,key,value,word", [
        ("experiment", "radii", "-5,10", "non-negative"),
        ("experiment", "r0", "-1", "non-negative"),
        ("experiment", "scale_grid", "0.5,-0.9", "non-negative"),
        ("experiment", "z_list", "-1e-3,1e-2", "positive"),
        ("experiment", "z_list", "0,1e-2", "positive"),
        ("experiment", "xi_list", "-1,1", "positive"),
        ("experiment", "eps0", "-1", "positive"),
    ])
    def test_out_of_range_exits_config(self, tmp_path, capsys, section, key, value, word):
        err = self.assert_config_error(tmp_path, capsys, section, key, value)
        assert f"must be {word}" in err

    # a bracket is two numbers lo < hi and the energy targets list one at least,
    # checked when the config is parsed, not by the solver that unpacks them
    @pytest.mark.parametrize("command,key,value,word", [
        (("three-body", "theta0"), "theta_bracket", "1.8788", "lo < hi"),
        (("three-body", "theta0"), "theta_bracket", "1.8,2.0,3.4", "lo < hi"),
        (("three-body", "dichotomy"), "scale_bracket", "0.9", "lo < hi"),
        (("three-body", "dichotomy"), "scale_bracket", "1.2,0.9", "lo < hi"),
        (("three-body", "cross-validate"), "scale_bracket", "0.9", "lo < hi"),
        (("three-body", "cross-validate"), "scale_bracket", "0.9,1.0,1.2", "lo < hi"),
        (("three-body", "dichotomy"), "energy_targets", "", "at least one value"),
        (("checks", "merkuriev"), "theta_bracket", "2.0,2.0", "lo < hi"),
    ], ids=["theta0-one", "theta0-three", "dichotomy-one", "dichotomy-reversed",
            "cross-validate-one", "cross-validate-three", "dichotomy-no-targets",
            "merkuriev-empty-bracket"])
    def test_bracket_and_targets_exit_config(self, tmp_path, capsys, command, key, value, word):
        err = self.assert_config_error(tmp_path, capsys, "experiment", key, value,
                                       command=command)
        assert word in err

    # each grid panel takes at least 4 nodes, so a smaller count is not raised silently
    @pytest.mark.parametrize("key,value,least", [
        ("radial_nodes", "0", 20),
        ("radial_nodes", "-4", 20),
        ("radial_nodes", "3", 20),
        ("faddeev_nodes", "14", 20),
        ("p_per_panel", "0", 1),
        ("angle_nodes", "0", 1),
        ("basis.n_x", "0", 1),
        ("basis.n_y", "-1", 1),
        ("basis.n_random", "-2", 0),
    ])
    def test_integer_below_least_exits_config(self, tmp_path, capsys, key, value, least):
        err = self.assert_config_error(tmp_path, capsys, "numerics", key, value)
        assert f"must be at least {least}" in err

    def test_integer_least_values_run(self, cfg_file, capsys):
        cfg_file.write_text(FULL.replace("[numerics]\n", "[numerics]\nradial_nodes = 20\n"))
        assert main(["two-body", "threshold", "--config", str(cfg_file), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "2.684164730801585"

    # a table ending at r = 0 is a well of range 0: a config error naming the pair
    @pytest.mark.parametrize("table,word", [
        ("0:0", "positive radius"),
        ("0:1,0.5:0.3,0.2:0", "strictly increasing"),
    ])
    def test_invalid_table_exits_config(self, tmp_path, capsys, table, word):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(FULL.replace("pair12.kind = gaussian",
                                    f"pair12.kind = tabulated\npair12.table = {table}"))
        assert main(["two-body", "threshold", "--config", str(cfg), "--quiet"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid potential model.pair12 " in captured.err and word in captured.err

    # a name read by one subcommand only is checked when the config is parsed
    @pytest.mark.parametrize("key,value", [("vary_pair", "14"), ("scenario", "bogus")])
    @pytest.mark.parametrize("command", [("three-body", "theta0"), ("three-body", "dichotomy"),
                                         ("validate-config",)], ids=lambda c: c[-1])
    def test_unknown_name_exits_config(self, tmp_path, capsys, key, value, command):
        err = self.assert_config_error(tmp_path, capsys, "experiment", key, value,
                                       command=command)
        assert "must be one of" in err

    @pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
    def test_removed_key_exits_config(self, tmp_path, capsys, key):
        err = self.assert_config_error(tmp_path, capsys, "numerics", key, "64")
        assert f"unknown key numerics.{key}" in err

    # k's range depends on the subcommand: mu-curve takes k = 0
    @pytest.mark.parametrize("command,value,word", [
        (("two-body", "mu-curve"), "1e-2,-1e-2", "non-negative"),
        (("two-body", "w-probe"), "0,1e-3", "positive"),
        (("two-body", "w-probe"), "-1e-2", "positive"),
        (("checks", "merkuriev"), "-1e-2,1e-3", "positive"),
        (("checks", "merkuriev"), "0", "positive"),
    ], ids=["mu-curve-negative", "w-probe-zero", "w-probe-negative", "merkuriev-negative",
            "merkuriev-zero"])
    def test_k_list_range_per_subcommand(self, tmp_path, capsys, command, value, word):
        err = self.assert_config_error(tmp_path, capsys, "experiment", "k_list", value,
                                       command=command)
        assert f"must be {word}" in err

    def test_mu_curve_takes_k_zero(self, cfg_file, capsys):
        cfg_file.write_text(FULL.replace("k_list = 1e-2,1e-3", "k_list = 1e-2,0"))
        assert main(["two-body", "mu-curve", "--config", str(cfg_file), "--quiet"]) == EXIT_OK
        assert [row.split(",")[0] for row in capsys.readouterr().out.split()[1:]] == ["0", "0.01"]

    @pytest.mark.parametrize("value,message", [
        ("nan", "not a finite number"),
        ("inf", "not a finite number"),
        ("x", "could not convert"),
        ("-1e-2", "must be non-negative"),
    ])
    def test_mu_curve_k_option_exits_config(self, cfg_file, capsys, value, message):
        rc = main(["two-body", "mu-curve", "--config", str(cfg_file), "--quiet", f"--k={value}"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "--k" in captured.err
        assert message in captured.err

    # a basis ladder takes positive scales and one correlation level at least,
    # each in (-1, 1); vr.build_basis would otherwise fail as a numeric error
    # (exit 3), or with a traceback on an empty list
    @pytest.mark.parametrize("key,value,word", [
        ("basis.scale_min_x", "0", "positive"),
        ("basis.scale_min_x", "-1", "positive"),
        ("basis.scale_max_y", "-600", "positive"),
        ("basis.correlations", "1.5", "frames or levels in (-1, 1)"),
        ("basis.correlations", "0.3,-1", "frames or levels in (-1, 1)"),
        ("basis.correlations", "", "frames or levels in (-1, 1)"),
    ])
    def test_basis_value_out_of_range_exits_config(self, tmp_path, capsys, key, value, word):
        err = self.assert_config_error(tmp_path, capsys, "numerics", key, value,
                                       command=("three-body", "ground"))
        assert f"must be {word}" in err

    @pytest.mark.parametrize("z_list", ["nan,1e-2", "-1e-3,1e-2"])
    def test_bs_radius_rejects_z_list_before_solving(self, tmp_path, capsys, z_list):
        self.assert_config_error(tmp_path, capsys, "experiment", "z_list", z_list,
                                 command=["three-body", "bs-radius"])

    @staticmethod
    def assert_config_error(tmp_path, capsys, section, key, value,
                            command=("checks", "merkuriev")) -> str:
        """Run command on FULL with section.key = value; exit 2 naming the key."""
        cfg = tmp_path / "m.cfg"
        cfg.write_text(set_keys(FULL, section, **{key: value}))
        rc = main([*command, "--config", str(cfg), "--quiet"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and f"{section}.{key}" in captured.err
        return captured.err


class TestOptions:
    # two-body threshold was the one subcommand with --tol: it now prints no tol
    # column and, like every other subcommand, takes no --tol
    def test_tol_only_on_two_body_threshold(self, cfg_file, capsys):
        rc = main(["two-body", "threshold", "--config", str(cfg_file), "--quiet"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "potential,depth,range,lambda_star"
        assert len(lines[1].split(",")) == 4
        with pytest.raises(SystemExit) as exc:
            main(["two-body", "threshold", "--config", str(cfg_file), "--quiet", "--tol", "1e-6"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    # no value of --tol, positive or not, is accepted, and nothing is printed
    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tol_must_be_positive(self, cfg_file, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["two-body", "threshold", "--config", str(cfg_file), "--quiet", f"--tol={tol}"])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --tol" in captured.err

    def test_tol_is_not_an_option(self, cfg_file, capsys):
        for command in (["two-body", "mu-curve"], ["three-body", "theta0"], ["validate-config"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--config", str(cfg_file), "--quiet", "--tol", "1e-6"])
            assert exc.value.code == EXIT_CONFIG
            assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_pair_not_on_classify(self, cfg_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["two-body", "classify", "--config", str(cfg_file), "--quiet", "--pair", "13"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --pair" in capsys.readouterr().err

    def test_k_only_on_mu_curve(self, cfg_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["two-body", "threshold", "--config", str(cfg_file), "--quiet", "--k", "5"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --k" in capsys.readouterr().err

    def test_threads_is_not_an_option(self, cfg_file, capsys):
        for command in (["three-body", "sweep"], ["two-body", "threshold"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--config", str(cfg_file), "--quiet", "--threads", "2"])
            assert exc.value.code == EXIT_CONFIG
            assert "unrecognized arguments: --threads" in capsys.readouterr().err


class TestEmitCsv:
    def test_header_only_for_empty(self):
        buf = io.StringIO()
        emit_csv([], ["a", "b"], buf)
        assert buf.getvalue() == "a,b\r\n"

    def test_float_formatting_roundtrip(self):
        buf = io.StringIO()
        x = 0.1234567890123456789
        emit_csv([{"x": x}], ["x"], buf)
        printed = buf.getvalue().splitlines()[1]
        assert float(printed) == x

    def test_none_prints_empty(self):
        buf = io.StringIO()
        emit_csv([{"a": None, "b": 1}], ["a", "b"], buf)
        assert buf.getvalue().splitlines()[1] == ",1"

    @pytest.mark.parametrize("rows,text", [
        ([], "xi,value,bound,passed\r\n"),
        ([fd.Green6Row(0.5, 1.0, 2.0, True)], "xi,value,bound,passed\r\n0.5,1,2,True\r\n"),
    ], ids=["empty", "one-row"])
    def test_dataclass_rows_take_header_from_fields(self, rows, text):
        buf = io.StringIO()
        emit_csv(rows, fd.Green6Row, buf)
        assert buf.getvalue() == text

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_cell_is_refused_before_any_output(self, value):
        buf = io.StringIO()
        rows = [{"a": 1.0, "b": None}, {"a": 2.0, "b": value}]
        with pytest.raises(cli.NonFiniteOutputError, match="column b = "):
            emit_csv(rows, ["a", "b"], buf)
        assert buf.getvalue() == ""

    def test_comma_in_text_cell_becomes_semicolon(self):
        buf = io.StringIO()
        emit_csv([{"a": "L1=1, L2^2=2", "b": 1.5}], ["a", "b"], buf)
        assert buf.getvalue() == "a,b\r\nL1=1; L2^2=2,1.5\r\n"


class TestResultStore:
    def test_record_and_resume(self, tmp_path):
        path = tmp_path / "store.jsonl"
        s1 = ResultStore(path, "abc")
        s1.record(1, {"x": 2.0})
        s1.record(0, {"x": 1.0})
        s1.record(1, {"x": 99.0})  # idempotent: second write ignored
        s2 = ResultStore(path, "abc")
        assert 0 in s2.rows and 1 in s2.rows
        assert s2.rows == {0: {"x": 1.0}, 1: {"x": 2.0}}

    def test_hash_mismatch_refused(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path, "abc").record(0, {"x": 1.0})
        with pytest.raises(ConfigError):
            ResultStore(path, "other")


    def test_torn_tail_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        s1 = ResultStore(path, "abc")
        s1.record(0, {"x": 1.0})
        s1.record(1, {"x": 2.0})
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"config": "abc", "point": 2, "ro')
        s2 = ResultStore(path, "abc")
        assert s2.rows == {0: {"x": 1.0}, 1: {"x": 2.0}}
        assert path.read_bytes() == whole
        s2.record(2, {"x": 3.0})
        assert ResultStore(path, "abc").rows == {0: {"x": 1.0}, 1: {"x": 2.0}, 2: {"x": 3.0}}

    @pytest.mark.parametrize("bad", [b"{not json", b'{"config": "abc"}', b"[1, 2]"])
    def test_malformed_interior_line_refused(self, tmp_path, bad):
        path = tmp_path / "store.jsonl"
        ResultStore(path, "abc").record(0, {"x": 1.0})
        path.write_bytes(bad + b"\n" + path.read_bytes())
        with pytest.raises(ConfigError, match="line 1 is malformed"):
            ResultStore(path, "abc")


class TestMainEntry:
    def test_threshold_deterministic(self, cfg_file, capsys):
        rc1 = main(["two-body", "threshold", "--config", str(cfg_file), "--quiet"])
        out1 = capsys.readouterr().out
        rc2 = main(["two-body", "threshold", "--config", str(cfg_file), "--quiet"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == EXIT_OK
        assert out1 == out2
        assert out1.startswith("potential,depth,range,lambda_star\r\n")

    def test_non_finite_output_exits_numeric(self, tmp_path, capsys):
        # a range of 1e-300 gives a nan threshold: no CSV, the column named
        p = tmp_path / "tiny.cfg"
        p.write_text(MINIMAL.replace("pair12.range = 1.0", "pair12.range = 1e-300"))
        with np.errstate(all="ignore"):
            rc = main(["two-body", "threshold", "--config", str(p), "--quiet"])
        captured = capsys.readouterr()
        assert rc == EXIT_NUMERIC and captured.out == ""
        assert "numeric failure: column lambda_star = nan is not a finite number" in captured.err

    def test_config_error_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[model]\nspin = 1\n")
        rc = main(["two-body", "threshold", "--config", str(p), "--quiet"])
        assert rc == EXIT_CONFIG

    def test_classify_and_merkuriev(self, cfg_file, capsys):
        assert main(["two-body", "classify", "--config", str(cfg_file), "--quiet"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("unbound_with_margin") == 3
        assert main(["checks", "merkuriev", "--config", str(cfg_file), "--quiet"]) == EXIT_OK

    def test_out_file(self, cfg_file, tmp_path):
        dest = tmp_path / "o.csv"
        rc = main([
            "two-body", "threshold", "--config", str(cfg_file),
            "--out", str(dest), "--quiet",
        ])
        assert rc == EXIT_OK
        assert dest.read_text().startswith("potential,")

    def test_w_probe_runs(self, cfg_file, capsys):
        rc = main(["two-body", "w-probe", "--config", str(cfg_file), "--quiet"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,w_norm,akw,z_norm"
        assert len(lines) == 3

    def test_validate_config(self, cfg_file, capsys):
        rc = main(["validate-config", "--config", str(cfg_file), "--quiet"])
        assert rc == EXIT_OK
        assert "envelope[12]" in capsys.readouterr().out

    def test_validate_config_l1_is_the_well_volume(self, tmp_path, capsys):
        # a range-20 (23) well no longer truncates the others' L1 to its grid
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(FULL.replace("pair23.kind = gaussian\n",
                                    "pair23.kind = gaussian\npair23.range = 20\n"))
        assert main(["validate-config", "--config", str(cfg), "--quiet"]) == EXIT_OK
        details = {r["requirement"]: r["detail"]
                   for r in csv.DictReader(io.StringIO(capsys.readouterr().out))}
        for pair in cli.PAIRS:
            l1 = parse_config(cfg).model.potential(pair).volume()
            assert details[f"integrable[{pair}]"].startswith(f"L1={l1:.6g};")

    @pytest.mark.parametrize("command,key", [
        ("theta0", "experiment.theta_bracket"),
        ("sweep", "experiment.scale_grid"),
    ])
    def test_missing_key_without_default_exits_config(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(FULL.replace("scale_grid = 0.5,0.9\n", ""))
        rc = main(["three-body", command, "--config", str(cfg), "--quiet"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and f"missing key {key}" in captured.err


# an in-range extreme ends in exit 0, 2 or 3 with a message, never in a traceback
# or a RuntimeWarning (which fails any test here)
class TestExtremeValues:
    @staticmethod
    def run(tmp_path, capsys, text, command):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(text)
        rc = main([*command, "--config", str(cfg), "--quiet"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        return rc, captured

    def test_green6_at_huge_xi_is_zero_over_zero(self, tmp_path, capsys):
        # both sides underflow to 0; the exact value lies below the exact bound
        rc, captured = self.run(tmp_path, capsys, set_keys(FULL, "experiment", xi_list="1e300"),
                                ("checks", "green6"))
        assert rc == EXIT_OK
        assert captured.out.splitlines()[1].split(",")[1:] == ["0", "0", "True"]

    def test_green6_at_tiny_xi_is_not_a_float64(self, tmp_path, capsys):
        rc, captured = self.run(tmp_path, capsys, set_keys(FULL, "experiment", xi_list="1e-300"),
                                ("checks", "green6"))
        assert rc == EXIT_NUMERIC and captured.out == ""
        assert "numeric failure: column value = inf is not a finite number" in captured.err

    @pytest.mark.parametrize("command", [("three-body", "bs-radius"), ("checks", "bounds"),
                                         ("checks", "jlog")], ids=lambda c: c[-1])
    def test_z_with_an_infinite_square_exits_config(self, tmp_path, capsys, command):
        rc, captured = self.run(tmp_path, capsys, set_keys(FULL, "experiment", z_list="1e300"),
                                command)
        assert rc == EXIT_CONFIG and captured.out == ""
        assert ("config error: experiment.z_list = '1e300': values must be positive with a "
                "finite square") in captured.err

    def test_stochastic_basis_without_seed_exits_config(self, tmp_path, capsys):
        text = set_keys(FULL, "numerics", **{"basis.n_random": "3"})
        rc, captured = self.run(tmp_path, capsys, text, ("three-body", "ground"))
        assert rc == EXIT_CONFIG and captured.out == ""
        assert "config error: numerics.seed is required" in captured.err

    @pytest.mark.parametrize("mass", ["1e-300", "1e308"])
    @pytest.mark.parametrize("command", [("two-body", "threshold"), ("checks", "bounds"),
                                         ("three-body", "ground")], ids=lambda c: c[-1])
    def test_masses_without_finite_reduced_masses_exit_config(self, tmp_path, capsys, mass,
                                                              command):
        rc, captured = self.run(tmp_path, capsys, set_keys(FULL, "model", m1=mass, m2=mass),
                                command)
        assert rc == EXIT_CONFIG and captured.out == ""
        assert "config error: invalid model values: reduced masses of pair 12" in captured.err


CV_CFG = FULL.replace("basis.n_x = 6", "basis.n_x = 6\nfaddeev_nodes = 20\np_per_panel = 4")


class TestCrossValidate:
    def test_coupled_threshold_outside_bracket_exits_config(self, tmp_path, monkeypatch,
                                                            capsys):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(CV_CFG)
        monkeypatch.setattr(fd, "threshold_scale", lambda ops: 1.5)
        rc = main(["three-body", "cross-validate", "--config", str(cfg), "--quiet"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "coupled-solver threshold scale 1.5" in captured.err


class TestChecksBounds:
    # the coupled-solver grid keys reach the cross-pair continuity rows
    @pytest.mark.parametrize("angle_nodes", [32, 8])
    def test_continuity_rows_take_grid_keys(self, tmp_path, capsys, angle_nodes):
        cfg = tmp_path / "cv.cfg"
        cfg.write_text(CV_CFG.replace("p_per_panel = 4",
                                      f"p_per_panel = 4\nangle_nodes = {angle_nodes}"))
        assert main(["checks", "bounds", "--config", str(cfg), "--quiet"]) == EXIT_OK
        rows = [r for r in csv.DictReader(io.StringIO(capsys.readouterr().out))
                if r["check"] == "continuity_12_23"]
        conf = parse_config(cfg)
        zs = sorted(conf["experiment", "z_list"])
        direct = fd.continuity_modulus_check(conf.model, "12", "23", list(zip(zs, zs[1:])), 64,
                                             n_x=20, n_p_per_panel=4, n_angle=angle_nodes)
        assert [(r["z"], r["lhs"], r["rhs"]) for r in rows] == [
            (cli._fmt(c.z), cli._fmt(c.lhs), cli._fmt(c.rhs)) for c in direct]

    def test_subthreshold_rows_take_each_wells_own_grid(self, tmp_path, capsys):
        # a range-20 (23) well on its own 128-node grid, not on the range-1 (12) grid
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(FULL.replace("pair23.kind = gaussian\n",
                                    "pair23.kind = gaussian\npair23.range = 20\n")
                       .replace("[numerics]\n", "[numerics]\nradial_nodes = 128\n"))
        main(["checks", "bounds", "--config", str(cfg), "--quiet"])
        row = next(r for r in csv.DictReader(io.StringIO(capsys.readouterr().out))
                   if r["check"] == "subthreshold_23" and float(r["z"]) == 1e-3)
        pot = parse_config(cfg).model.scaled_potential("23")
        own = 2.1472 * tb.mu_max(pot, 1.0, 1e-3, cli.Quadrature.for_potential(pot, n=128))
        assert float(row["lhs"]) == pytest.approx(own, rel=1e-10, abs=0)


    def test_least_radial_grid_keeps_hs_rows(self, cfg_file, capsys):
        # the kernel constants are closed-form well volumes, so the radial grid
        # moves no hs_bound row
        def hs_rows(text):
            cfg_file.write_text(text)
            assert main(["checks", "bounds", "--config", str(cfg_file), "--quiet"]) == EXIT_OK
            return [r for r in capsys.readouterr().out.splitlines() if r.startswith("hs_bound")]

        least = hs_rows(FULL.replace("[numerics]\n", "[numerics]\nradial_nodes = 20\n"))
        assert len(least) == 4 and least == hs_rows(FULL)


class TestChecksJlog:
    # rows in descending z, whether or not the (23) well vanishes
    @pytest.mark.parametrize("text", [MINIMAL, FULL], ids=["zero-v23", "gaussian-v23"])
    def test_rows_descend(self, tmp_path, capsys, text):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(text)
        assert main(["checks", "jlog", "--config", str(cfg), "--quiet"]) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["z"] for r in rows] == ["1", "0.10000000000000001", "0.01", "0.001"]


THETA0_CFG = FULL.replace("lambda13 = 2.1472\n", "").replace(
    "k_list = 1e-2,1e-3", "theta_bracket = 1.8788,3.4892"
)


class TestTheta0:
    def test_header_and_exit(self, tmp_path, capsys):
        cfg = tmp_path / "theta0.cfg"
        cfg.write_text(THETA0_CFG)
        rc = main(["three-body", "theta0", "--config", str(cfg), "--quiet"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "pair,theta0" and len(lines) == 2
        pair, theta0 = lines[1].split(",")
        assert pair == "13" and 1.8788 < float(theta0) < 3.4892

    def test_invalid_bracket_exits_config(self, tmp_path, capsys):
        # pairs 12 and 23 at 0.8 lam*: the level is still unbound at the upper end
        cfg = tmp_path / "theta0.cfg"
        cfg.write_text(THETA0_CFG.replace("theta_bracket = 1.8788,3.4892",
                                          "theta_bracket = 0.1,0.2"))
        rc = main(["three-body", "theta0", "--config", str(cfg), "--quiet"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "still above" in captured.err


SWEEP_CFG = """\
[model]
pair12.kind = gaussian
pair13.kind = gaussian
pair23.kind = gaussian
lambda12 = 2.1472
lambda13 = 2.1472
lambda23 = 2.1472
margin_epsilon = 0.2

[numerics]
basis.n_x = 5
basis.n_y = 6
basis.scale_max_y = 40.0
faddeev_nodes = 20
p_per_panel = 4

[experiment]
scale_grid = 0.6,0.9
radii = 10.0
"""


class TestSweepResume:
    @pytest.mark.parametrize("failed_at", [1, 2])
    def test_failed_point_keeps_earlier_rows(self, tmp_path, monkeypatch, capsys, failed_at):
        # a failure at point k keeps points 0..k-1 stored; the rerun computes the rest
        scales = [0.6, 0.75, 0.9]
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("scale_grid = 0.6,0.9", "scale_grid = 0.6,0.75,0.9"))
        store = tmp_path / "rows.jsonl"
        rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet"])
        assert rc == EXIT_OK
        full = capsys.readouterr().out

        point = cli._sweep_point
        computed = []

        def failing(cfg, shared, scale, radii):
            if scale == scales[failed_at]:
                raise vr.IllConditionedBasisError("injected failure at one point")
            return point(cfg, shared, scale, radii)

        def counting(cfg, shared, scale, radii):
            computed.append(scale)
            return point(cfg, shared, scale, radii)

        argv = ["three-body", "sweep", "--config", str(cfg), "--quiet", "--store", str(store)]
        monkeypatch.setattr(cli, "_sweep_point", failing)
        assert main(argv) == EXIT_NUMERIC
        assert capsys.readouterr().out == ""
        assert len(store.read_text().splitlines()) == failed_at

        monkeypatch.setattr(cli, "_sweep_point", counting)
        assert main(argv) == EXIT_OK
        assert computed == scales[failed_at:]
        assert capsys.readouterr().out == full

    def test_interrupt_and_resume_identical(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        store = tmp_path / "rows.jsonl"

        rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet",
                   "--store", str(store)])
        assert rc == EXIT_OK
        full = capsys.readouterr().out

        # drop one stored point to fake an interruption, then resume
        lines = store.read_text().splitlines()
        store.write_text("\n".join(lines[:1]) + "\n")
        rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet",
                   "--store", str(store)])
        assert rc == EXIT_OK
        resumed = capsys.readouterr().out
        assert resumed == full

    def test_resume_after_torn_append(self, tmp_path, capsys):
        # a sweep killed mid-append leaves two whole records and a torn third
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("scale_grid = 0.6,0.9", "scale_grid = 0.6,0.75,0.9"))
        store = tmp_path / "rows.jsonl"
        rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet",
                   "--store", str(store)])
        assert rc == EXIT_OK
        full = capsys.readouterr().out
        records = store.read_bytes().splitlines(keepends=True)
        assert len(records) == 3

        store.write_bytes(records[0] + records[1] + records[2][: len(records[2]) // 2])
        rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet",
                   "--store", str(store)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == full
        assert store.read_bytes() == b"".join(records)

    def test_seed_enters_store_hash(self, tmp_path, capsys):
        # a random basis: the effective seed picks it, so it keys the store
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("p_per_panel = 4", "p_per_panel = 4\nbasis.n_random = 3\nseed = 7"))

        def sweep(store, *seed):
            rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet",
                       "--store", str(store), *seed])
            return rc, capsys.readouterr()

        seeded = tmp_path / "seeded.jsonl"
        rc, first = sweep(seeded, "--seed", "1")
        assert rc == EXIT_OK
        stored = seeded.read_bytes()
        rc, refused = sweep(seeded, "--seed", "2")
        assert rc == EXIT_CONFIG and "different configuration" in refused.err
        rc, resumed = sweep(seeded, "--seed", "1")
        assert rc == EXIT_OK and resumed.out == first.out
        assert seeded.read_bytes() == stored

        # without --seed the hash is that of the file text, as before
        plain = tmp_path / "plain.jsonl"
        rc, first = sweep(plain)
        assert rc == EXIT_OK
        assert 0 in ResultStore(plain, parse_config(cfg).config_hash()).rows
        rc, resumed = sweep(plain)
        assert rc == EXIT_OK and resumed.out == first.out
        # an override equal to the file's seed is the same effective config
        rc, resumed = sweep(plain, "--seed", "7")
        assert rc == EXIT_OK and resumed.out == first.out

    def test_solver_failure_is_not_blanked(self, tmp_path, monkeypatch, capsys):
        # only a supercritical pair blanks bs_radius; any other failure exits 3
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)

        def asymmetric(*args, **kwargs):
            raise ValueError("matrix asymmetry exceeds 1e-12")

        monkeypatch.setattr(fd, "extrapolated_radius", asymmetric)
        rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet"])
        assert rc == EXIT_NUMERIC
        assert "matrix asymmetry" in capsys.readouterr().err


def reference_sweep_point(cfg, basis, scale, radii):
    """One sweep row solved from scratch on the rescaled model: the oracle of the sweep.

    A fresh variational solve, a ball build and two block assemblies per point,
    where the sweep builds each once at the configured couplings and scales them.
    """
    m = cfg.model.with_couplings(cfg.model.couplings.scaled(scale))
    gs = vr.solve_ground(m, basis)
    thr = vr.hvz_bottom(m)
    row = {
        "scale": scale,
        "lambda12": m.couplings.lambda12,
        "lambda13": m.couplings.lambda13,
        "lambda23": m.couplings.lambda23,
        "e_gr": gs.energy,
        "e_thr": thr,
        "bound_states": int(np.sum(gs.eigenvalues < thr - 1e-8)),
    }
    for R, p in zip(radii, vr.probability_inside(vr.ball_matrices(basis, radii),
                                                  gs.coefficients)):
        row[f"p_r{cli._fmt(R)}"] = float(p)
    try:
        row["bs_radius"] = fd.radius_at_zero(
            m, n_x=cfg["numerics", "faddeev_nodes"],
            n_p_per_panel=cfg["numerics", "p_per_panel"],
            n_angle=cfg["numerics", "angle_nodes"],
        )
    except fd.PairThresholdError:
        row["bs_radius"] = None
    return row


def counted(monkeypatch, calls, module, name):
    """Replace module.name by a wrapper that counts its calls in calls[name]."""
    fn = getattr(module, name)
    calls[name] = 0

    def counting(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


class TestSweepSharedWork:
    # scale 0 has no coupling left; at 1.5 every pair is past its threshold
    GRID = "scale_grid = 0.0,0.6,0.9,1.5"

    def test_rows_match_fresh_per_point_solves(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("scale_grid = 0.6,0.9", self.GRID)
                       .replace("radii = 10.0", "radii = 2.0,10.0"))
        assert main(["three-body", "sweep", "--config", str(cfg), "--quiet"]) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        conf = parse_config(cfg)
        basis = vr.build_basis(conf.basis_spec, conf.model.masses)
        scales = conf["experiment", "scale_grid"]
        assert [float(r["scale"]) for r in rows] == scales
        for row, s in zip(rows, scales):
            ref = reference_sweep_point(conf, basis, s, conf["experiment", "radii"])
            assert list(row) == list(ref)
            for key in ref:
                if key != "bs_radius":
                    assert row[key] == cli._fmt(ref[key]), (s, key)
            if ref["bs_radius"] is None:
                assert row["bs_radius"] == ""
            else:
                assert float(row["bs_radius"]) == pytest.approx(ref["bs_radius"], rel=1e-12)
        assert float(rows[0]["bs_radius"]) == 0.0
        assert rows[-1]["bs_radius"] == "" and float(rows[-1]["e_thr"]) < 0.0

    @pytest.mark.parametrize("grid", ["0.6,0.9", "0.5,0.6,0.75,0.9"])
    def test_shared_work_built_once_per_sweep(self, tmp_path, monkeypatch, capsys, grid):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG.replace("0.6,0.9", grid))
        store = tmp_path / "rows.jsonl"
        argv = ["three-body", "sweep", "--config", str(cfg), "--quiet", "--store", str(store)]
        calls = {}
        counted(monkeypatch, calls, vr, "hamiltonian_matrices")
        counted(monkeypatch, calls, vr, "ball_overlap")
        counted(monkeypatch, calls, fd, "assemble_block_operator")
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert calls == {"hamiltonian_matrices": 1, "ball_overlap": 1,
                         "assemble_block_operator": 2}
        # every point stored: nothing is built
        calls.update(dict.fromkeys(calls, 0))
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first
        assert set(calls.values()) == {0}


def documented_columns() -> dict:
    """(group, command) -> the Columns: header of each entry in docs/cli.md."""
    text = (Path(__file__).parents[1] / "docs" / "cli.md").read_text()
    columns, group = {}, None
    # an entry starts at "## group" or at a "`command [options]`" line followed by ": "
    for block in re.split(r"\n(?=## |`[\w-]+[^`\n]*`\n: )", text):
        if block.startswith("## "):
            group, command = block.split()[1], None
        elif block.startswith("`"):
            command = re.match(r"`([\w-]+)", block).group(1)
        found = re.search(r"Columns:\s+`([^`]+)`", block)
        if found:
            columns[(group, command)] = found.group(1)
    return columns


EMPTY_LISTS_CFG = FULL.replace("k_list = 1e-2,1e-3", "k_list =\nz_list =\nxi_list =")

# pairs 12 and 13 at their threshold, 23 uncoupled: no level below the HVZ bottom
NO_LEVEL_CFG = (
    FULL.replace("lambda12 = 2.1472", "lambda12 = 2.6840046509244826")
    .replace("lambda13 = 2.1472", "lambda13 = 2.6840046509244826")
    .replace("lambda23 = 2.1472", "lambda23 = 0.0")
    .replace("margin_epsilon = 0.2", "margin_epsilon = 0.05")
    .replace("basis.scale_max_y = 60.0", "basis.scale_max_y = 5")
)


class TestDocumentedHeaders:
    # a cheap config per subcommand; those with rows left out print the header alone
    CONFIGS = {
        ("three-body", "sweep"): SWEEP_CFG,
        ("three-body", "theta0"): THETA0_CFG,
        ("three-body", "cross-validate"): CV_CFG,
        ("checks", "bounds"): EMPTY_LISTS_CFG,
    }
    HEADER_ONLY = {
        ("three-body", "efimov"): NO_LEVEL_CFG,
        ("three-body", "bs-radius"): EMPTY_LISTS_CFG,
        ("checks", "green6"): EMPTY_LISTS_CFG,
        ("checks", "merkuriev"): EMPTY_LISTS_CFG,
        ("checks", "jlog"): EMPTY_LISTS_CFG,
        ("two-body", "mu-curve"): EMPTY_LISTS_CFG,
    }

    def test_every_subcommand_is_documented(self):
        assert set(documented_columns()) == set(cli._SUBCOMMANDS)

    @pytest.mark.parametrize("command", list(cli._SUBCOMMANDS),
                             ids=lambda c: " ".join(filter(None, c)))
    def test_header_matches_docs(self, tmp_path, capsys, command):
        cfg = tmp_path / "m.cfg"
        cfg.write_text(self.HEADER_ONLY.get(command) or self.CONFIGS.get(command, FULL))
        radii = parse_config(cfg)["experiment", "radii"]
        header = documented_columns()[command].replace(
            "p_r<R>...", ",".join(f"p_r{cli._fmt(R)}" for R in radii))
        rc = main([*filter(None, command), "--config", str(cfg), "--quiet"])
        assert rc in (EXIT_OK, cli.EXIT_INCONCLUSIVE)
        lines = capsys.readouterr().out.split("\r\n")
        assert lines[0] == header
        if command in self.HEADER_ONLY:
            assert lines == [header, ""]


def documented_keys() -> dict:
    """section -> the config keys its table in docs/config.md names.

    A row names its keys in backticks in the first cell: `m1,m2,m3` is three
    keys, `pair12.*` stands for the same key of every pair, and
    `basis.scale_min_x/scale_max_x/n_x` replaces the last dotted part.
    """
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    keys = {}
    for block in re.split(r"\n(?=## \[)", text)[1:]:
        section = re.match(r"## \[(\w+)\]", block).group(1)
        names = set()
        for line in block.splitlines():
            if not line.startswith("| `"):
                continue
            for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
                for key in name.split(","):
                    head, *tails = key.split("/")
                    prefix = head.rpartition(".")[0]
                    for k in [head] + [f"{prefix}.{t}" for t in tails]:
                        if k.startswith("pair12."):
                            names |= {k.replace("pair12.", f"pair{p}.") for p in cli.PAIRS}
                        else:
                            names.add(k)
        keys[section] = names
    return keys


def test_config_docs_name_every_parser_key():
    assert documented_keys() == cli._SECTION_KEYS


# scipy loads only when first used: the CLI and a ground state on unbound
# pairs load no scipy module at all, and the coupled solver adds the sparse
# eigensolver, none of the ODE solvers, root finders or special functions
_FOOTPRINT = """
import json, sys
from fewbody import cli
loaded = {"import": sorted(sys.modules)}
for command in (("three-body", "ground"), ("three-body", "bs-radius")):
    assert cli.main([*command, "--config", sys.argv[1], "--quiet", "--out", sys.argv[2]]) == 0
    loaded[command[1]] = sorted(sys.modules)
print(json.dumps(loaded))
"""


def test_scipy_solvers_load_only_when_used(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(CV_CFG.replace("k_list = 1e-2,1e-3", "z_list = 1e-2"))
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(cfg), str(tmp_path / "o.csv")],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, check=True).stdout
    loaded = {step: set(mods) for step, mods in json.loads(out).items()}
    for step in ("import", "ground"):
        assert not {m for m in loaded[step] if m == "scipy" or m.startswith("scipy.")}, step
    added = loaded["bs-radius"] - loaded["ground"]
    assert "scipy.sparse.linalg" in added
    unused = ("scipy.optimize", "scipy.integrate", "scipy.special")
    assert not {m for m in added if m.startswith(unused)}, sorted(added)
