import io
import sys

import pytest

from fewbody import faddeev as fd
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
        assert cfg.get("numerics", "radial_nodes") == "64"
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


class TestResultStore:
    def test_record_and_resume(self, tmp_path):
        path = tmp_path / "store.jsonl"
        s1 = ResultStore(path, "abc")
        s1.record(1, {"x": 2.0})
        s1.record(0, {"x": 1.0})
        s1.record(1, {"x": 99.0})  # idempotent: second write ignored
        s2 = ResultStore(path, "abc")
        assert s2.has(0) and s2.has(1)
        assert s2.ordered_rows() == [{"x": 1.0}, {"x": 2.0}]

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
        assert s2.ordered_rows() == [{"x": 1.0}, {"x": 2.0}] and not s2.has(2)
        assert path.read_bytes() == whole
        s2.record(2, {"x": 3.0})
        assert ResultStore(path, "abc").ordered_rows() == [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}]

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
        assert out1.startswith("potential,depth,range,lambda_star,tol")

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
faddeev_nodes = 14
p_per_panel = 4

[experiment]
scale_grid = 0.6,0.9
radii = 10.0
"""


class TestSweepResume:
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
        assert ResultStore(plain, parse_config(cfg).config_hash()).has(0)
        rc, resumed = sweep(plain)
        assert rc == EXIT_OK and resumed.out == first.out
        # an override equal to the file's seed is the same effective config
        rc, resumed = sweep(plain, "--seed", "7")
        assert rc == EXIT_OK and resumed.out == first.out

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet"])
        assert rc == EXIT_OK
        single = capsys.readouterr().out
        rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet",
                   "--threads", "4"])
        assert rc == EXIT_OK
        multi = capsys.readouterr().out
        assert single == multi

    def test_solver_failure_is_not_blanked(self, tmp_path, monkeypatch, capsys):
        # only a supercritical pair blanks bs_radius; any other failure exits 3
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)

        def asymmetric(*args, **kwargs):
            raise ValueError("matrix asymmetry exceeds 1e-12")

        monkeypatch.setattr(fd, "radius_at_zero", asymmetric)
        rc = main(["three-body", "sweep", "--config", str(cfg), "--quiet"])
        assert rc == EXIT_NUMERIC
        assert "matrix asymmetry" in capsys.readouterr().err
