import csv
import io
import sys

import numpy as np
import pytest

from fewbody import cli
from fewbody import faddeev as fd
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


class TestConfigValues:
    # a key read at parse time and one read only by the subcommand alike
    @pytest.mark.parametrize("section,key,value", [
        ("experiment", "k_list", "0.1,x"),
        ("experiment", "r0", "x"),
        ("experiment", "floor", "x"),
        ("experiment", "ceiling_factor", "x"),
        ("numerics", "threshold_tol", "x"),
        ("numerics", "resonance_tol", "x"),
        ("numerics", "seed", "x"),
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
        assert "not a finite number" in err

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

    @pytest.mark.parametrize("z_list", ["nan,1e-2", "-1e-3,1e-2"])
    def test_bs_radius_rejects_z_list_before_solving(self, tmp_path, capsys, z_list):
        self.assert_config_error(tmp_path, capsys, "experiment", "z_list", z_list,
                                 command=["three-body", "bs-radius"])

    @staticmethod
    def assert_config_error(tmp_path, capsys, section, key, value,
                            command=("checks", "merkuriev")) -> str:
        """Run command on FULL with section.key = value; exit 2 naming the key."""
        cfg = tmp_path / "m.cfg"
        text = "".join(line for line in FULL.splitlines(keepends=True)
                       if not line.startswith(f"{key} ="))
        cfg.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        rc = main([*command, "--config", str(cfg), "--quiet"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and f"{section}.{key}" in captured.err
        return captured.err


class TestOptions:
    def test_tol_only_on_two_body_threshold(self, cfg_file, capsys):
        rc = main(["two-body", "threshold", "--config", str(cfg_file), "--quiet", "--tol", "1e-6"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].endswith(",9.9999999999999995e-07")
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

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tol_must_be_positive(self, cfg_file, capsys, tol):
        rc = main(["two-body", "threshold", "--config", str(cfg_file), "--quiet", f"--tol={tol}"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol must be positive" in captured.err

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


CV_CFG = FULL.replace("basis.n_x = 6", "basis.n_x = 6\nfaddeev_nodes = 14\np_per_panel = 4")


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
            m, n_x=cfg.int("numerics", "faddeev_nodes"),
            n_p_per_panel=cfg.int("numerics", "p_per_panel"),
            n_angle=cfg.int("numerics", "angle_nodes"),
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
        scales = conf.floats("experiment", "scale_grid")
        assert [float(r["scale"]) for r in rows] == scales
        for row, s in zip(rows, scales):
            ref = reference_sweep_point(conf, basis, s, conf.floats("experiment", "radii"))
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
