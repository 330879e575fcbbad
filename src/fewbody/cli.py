"""Command-line front end: INI configs, subcommands, CSV emission, resumable sweeps.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 inconclusive verdict.
All floats are printed with 17 significant digits so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import (
    CouplingConfig,
    MassSet,
    ModelSpec,
    PAIRS,
    PotentialSpec,
    Quadrature,
    validate_requirements,
)
from . import experiments as ex
from . import faddeev as fd
from . import twobody as tb
from . import variational as vr


class ConfigError(ValueError):
    pass


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4


# ---------------------------------------------------------------------------
# configuration schema

_MODEL_KEYS = {
    "m1", "m2", "m3",
    "lambda12", "lambda13", "lambda23", "margin_epsilon",
}
for _p in PAIRS:
    _MODEL_KEYS |= {f"pair{_p}.kind", f"pair{_p}.depth", f"pair{_p}.range", f"pair{_p}.table"}

_NUMERICS_KEYS = {
    "radial_nodes", "momentum_nodes", "faddeev_nodes", "p_per_panel", "angle_nodes",
    "threshold_tol", "resonance_tol", "seed",
    "basis.scale_min_x", "basis.scale_max_x", "basis.n_x",
    "basis.scale_min_y", "basis.scale_max_y", "basis.n_y",
    "basis.correlations", "basis.n_random", "basis.symmetrize_12",
}

_EXPERIMENT_KEYS = {
    "scenario", "r0", "radii", "energy_targets", "floor", "ceiling_factor",
    "scale_bracket", "theta_bracket", "vary_pair", "z_list", "xi_list", "k_list",
    "scale_grid", "envelope_b1", "envelope_b2", "eps0",
}

_SECTION_KEYS = {
    "model": _MODEL_KEYS,
    "numerics": _NUMERICS_KEYS,
    "experiment": _EXPERIMENT_KEYS,
}

_DEFAULTS = {
    ("model", "m1"): "1.0",
    ("model", "m2"): "1.0",
    ("model", "m3"): "1.0",
    ("model", "lambda12"): "0.0",
    ("model", "lambda13"): "0.0",
    ("model", "lambda23"): "0.0",
    ("model", "margin_epsilon"): "0.1",
    ("numerics", "radial_nodes"): "64",
    ("numerics", "momentum_nodes"): "64",
    ("numerics", "faddeev_nodes"): "28",
    ("numerics", "p_per_panel"): "6",
    ("numerics", "angle_nodes"): "32",
    ("numerics", "threshold_tol"): "1e-8",
    ("numerics", "resonance_tol"): "1e-4",
    ("numerics", "basis.scale_min_x"): "0.25",
    ("numerics", "basis.scale_max_x"): "15.0",
    ("numerics", "basis.n_x"): "9",
    ("numerics", "basis.scale_min_y"): "0.25",
    ("numerics", "basis.scale_max_y"): "600.0",
    ("numerics", "basis.n_y"): "15",
    ("numerics", "basis.correlations"): "frames",
    ("numerics", "basis.n_random"): "0",
    ("numerics", "basis.symmetrize_12"): "false",
    ("experiment", "scenario"): "no-pair-resonance",
    ("experiment", "radii"): "10.0,30.0",
    ("experiment", "energy_targets"): "1e-1,1e-2,1e-3,1e-4",
    ("experiment", "floor"): "0.25",
    ("experiment", "ceiling_factor"): "0.1",
    ("experiment", "scale_bracket"): "0.9,1.2",
    ("experiment", "z_list"): "1e-3,1e-2,1e-1,1.0",
    ("experiment", "xi_list"): "0.5,1.0,10.0",
    ("experiment", "k_list"): "1e-2,1e-3,1e-4",
    ("experiment", "vary_pair"): "13",
    ("experiment", "envelope_b1"): "2.0",
    ("experiment", "envelope_b2"): "1.0",
    ("experiment", "eps0"): "1.0",
}

_PHYSICS_SECTIONS = ("model", "numerics", "experiment")


@dataclass(frozen=True, eq=False)
class RunConfig:
    model: ModelSpec
    basis_spec: vr.BasisSpec
    raw: dict  # (section, key) -> string, defaults included

    def get(self, section: str, key: str) -> str:
        return _read(self.raw, section, key)

    def floats(self, section: str, key: str) -> list[float]:
        return _read(self.raw, section, key, _float_list)

    def float(self, section: str, key: str) -> float:
        return _read(self.raw, section, key, _finite)

    def int(self, section: str, key: str) -> int:
        return _read(self.raw, section, key, int)

    def config_hash(self) -> str:
        lines = [
            f"{s}.{k}={v}"
            for (s, k), v in sorted(self.raw.items())
            if s in _PHYSICS_SECTIONS
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    def echo(self, stream=sys.stderr) -> None:
        cur = None
        for (s, k), v in sorted(self.raw.items()):
            if s != cur:
                print(f"[{s}]", file=stream)
                cur = s
            print(f"{k} = {v}", file=stream)


def _finite(text: str) -> float:
    """float(text), with nan and +-inf a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite(tok) for tok in text.split(",") if tok.strip()]


# the range of every value of these keys, checked when the config is parsed
_RANGES = {
    ("numerics", "threshold_tol"): "positive",
    ("numerics", "resonance_tol"): "positive",
    ("experiment", "floor"): "positive",
    ("experiment", "ceiling_factor"): "positive",
    ("experiment", "z_list"): "positive",
    ("experiment", "xi_list"): "positive",
    ("experiment", "eps0"): "positive",
    ("experiment", "r0"): "non-negative",
    ("experiment", "radii"): "non-negative",
    ("experiment", "scale_grid"): "non-negative",
}


def _read(raw: dict, section: str, key: str, convert=str):
    """raw[(section, key)] through convert; missing or malformed is a ConfigError."""
    try:
        text = raw[(section, key)]
    except KeyError:
        raise ConfigError(f"missing key {section}.{key}") from None
    try:
        return convert(text)
    except ValueError as err:
        raise ConfigError(f"invalid value {section}.{key} = {text!r} ({err})") from None


def _find_line(path: Path, key: str) -> int:
    base = key.split(".", 1)[0]
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip().startswith(key) or line.strip().startswith(base):
            return i
    return 0


def _parse_potential(raw: dict, pair: str, path: Path) -> PotentialSpec:
    kind = raw.get(("model", f"pair{pair}.kind"))
    if kind is None:
        raise ConfigError(f"missing key model.pair{pair}.kind")
    try:
        if kind == "tabulated":
            tab_raw = raw.get(("model", f"pair{pair}.table"), "")
            table = []
            for tok in tab_raw.split(","):
                tok = tok.strip()
                if not tok:
                    continue
                r, v = tok.split(":")
                table.append((_finite(r), _finite(v)))
            return PotentialSpec("tabulated", table=tuple(table))
        depth = _finite(raw.get(("model", f"pair{pair}.depth"), "1.0"))
        rng = _finite(raw.get(("model", f"pair{pair}.range"), "1.0"))
        return PotentialSpec(kind, depth=depth, range=rng)
    except (ValueError, KeyError) as err:
        line = _find_line(path, f"pair{pair}")
        raise ConfigError(
            f"invalid potential model.pair{pair} (line {line}): {err}"
        ) from err


def parse_config(path) -> RunConfig:
    """Read and fully validate an INI run configuration; defaults are filled in."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not readable: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case sensitive
    try:
        cp.read(path)
    except configparser.Error as err:
        raise ConfigError(f"parse error in {path}: {err}") from err

    raw: dict = dict(_DEFAULTS)
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in cp.items(section):
            if key not in _SECTION_KEYS[section]:
                line = _find_line(path, key)
                raise ConfigError(f"unknown key {section}.{key} (line {line})")
            raw[(section, key)] = value.strip()

    try:
        masses = MassSet(*(_read(raw, "model", m, _finite) for m in ("m1", "m2", "m3")))
        couplings = CouplingConfig(
            *(_read(raw, "model", f"lambda{p}", _finite) for p in PAIRS),
            margin_epsilon=_read(raw, "model", "margin_epsilon", _finite),
        )
    except ValueError as err:
        raise ConfigError(f"invalid model values: {err}") from err

    pots = {}
    for pair in PAIRS:
        if ("model", f"pair{pair}.kind") in raw:
            pots[pair] = _parse_potential(raw, pair, path)
        else:
            pots[pair] = PotentialSpec("gaussian", depth=0.0, range=1.0)

    try:
        model = ModelSpec(masses, pots["12"], pots["13"], pots["23"], couplings)
    except ValueError as err:
        raise ConfigError(f"invalid model: {err}") from err

    try:
        basis_spec = vr.BasisSpec(
            scale_min_x=_read(raw, "numerics", "basis.scale_min_x", _finite),
            scale_max_x=_read(raw, "numerics", "basis.scale_max_x", _finite),
            n_x=_read(raw, "numerics", "basis.n_x", int),
            scale_min_y=_read(raw, "numerics", "basis.scale_min_y", _finite),
            scale_max_y=_read(raw, "numerics", "basis.scale_max_y", _finite),
            n_y=_read(raw, "numerics", "basis.n_y", int),
            correlations=_read(
                raw, "numerics", "basis.correlations",
                lambda t: "frames" if t.strip() == "frames" else tuple(_float_list(t)),
            ),
            n_random=_read(raw, "numerics", "basis.n_random", int),
            seed=_read(raw, "numerics", "seed", int)
            if raw.get(("numerics", "seed"), "").strip() else None,
            symmetrize_12=raw[("numerics", "basis.symmetrize_12")].lower()
            in ("true", "1", "yes"),
        )
    except ValueError as err:
        raise ConfigError(f"invalid numerics.basis: {err}") from err

    for (s, key), word in _RANGES.items():
        if raw.get((s, key), "").strip():  # r0 and scale_grid may be left empty
            values = _read(raw, s, key, _float_list)
            if any(v < 0 or (v == 0 and word == "positive") for v in values):
                raise ConfigError(f"{s}.{key} = {raw[(s, key)]!r}: values must be {word}")

    return RunConfig(model=model, basis_spec=basis_spec, raw=raw)


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v)


def emit_csv(rows: Sequence[dict], header: Sequence[str], out) -> None:
    """RFC-4180-style CSV, fixed header order, deterministic row order."""
    out.write(",".join(header) + "\r\n")
    for row in rows:
        out.write(",".join(_fmt(row.get(h)) for h in header) + "\r\n")


class ResultStore:
    """Append-only JSONL of sweep rows keyed by (config hash, point index).

    Re-running a completed point is a no-op; a different config hash refuses
    to append, which keeps resumed sweeps byte-identical to uninterrupted ones.
    A record is complete once its newline is written: an unterminated last
    line (a sweep killed mid-append) is dropped and truncated away, so its
    point is recomputed; any other malformed line is a ConfigError.
    """

    def __init__(self, path, config_hash: str):
        self.path = Path(path)
        self.config_hash = config_hash
        self.rows: dict[int, dict] = {}
        if self.path.exists():
            data = self.path.read_bytes()
            end = data.rfind(b"\n") + 1
            for lineno, line in enumerate(data[:end].splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    config, point, row = rec["config"], int(rec["point"]), rec["row"]
                except (ValueError, KeyError, TypeError) as err:
                    raise ConfigError(
                        f"result store {self.path} line {lineno} is malformed ({err})"
                    ) from None
                if config != config_hash:
                    raise ConfigError(
                        "result store belongs to a different configuration "
                        f"({config} != {config_hash})"
                    )
                self.rows[point] = row
            if end < len(data):
                with self.path.open("r+b") as fh:
                    fh.truncate(end)

    def record(self, point: int, row: dict) -> None:
        if point in self.rows:
            return
        self.rows[point] = row
        with self.path.open("a") as fh:
            fh.write(
                json.dumps({"config": self.config_hash, "point": point, "row": row},
                           sort_keys=True)
                + "\n"
            )


# ---------------------------------------------------------------------------
# shared helpers


def _quad_for(cfg: RunConfig, pair: str) -> Quadrature:
    pot = cfg.model.scaled_potential(pair)
    return Quadrature.for_potential(
        pot,
        n=cfg.int("numerics", "radial_nodes"),
        n_momentum=cfg.int("numerics", "momentum_nodes"),
    )


def _grid_kw(cfg: RunConfig) -> dict:
    return dict(
        n_x=cfg.int("numerics", "faddeev_nodes"),
        n_p_per_panel=cfg.int("numerics", "p_per_panel"),
        n_angle=cfg.int("numerics", "angle_nodes"),
    )


def _basis(cfg: RunConfig) -> vr.GaussianBasis:
    return vr.build_basis(cfg.basis_spec, cfg.model.masses)


def _open_out(args):
    if args.out:
        return open(args.out, "w", newline="")
    return sys.stdout


# ---------------------------------------------------------------------------
# subcommands


def _cmd_two_body_threshold(cfg: RunConfig, args, out) -> int:
    pair = args.pair
    pot = cfg.model.scaled_potential(pair)
    quad = _quad_for(cfg, pair)
    tol = args.tol if args.tol is not None else cfg.float("numerics", "threshold_tol")
    if not 0 < tol < math.inf:
        raise ConfigError("--tol must be positive and finite")
    lam = tb.critical_coupling(pot, quad, tol=tol)
    rows = [
        {
            "potential": pot.kind,
            "depth": pot.depth,
            "range": pot.range,
            "lambda_star": lam,
            "tol": tol,
        }
    ]
    emit_csv(rows, ["potential", "depth", "range", "lambda_star", "tol"], out)
    return EXIT_OK


def _cmd_two_body_mu_curve(cfg: RunConfig, args, out) -> int:
    pair = args.pair
    pot = cfg.model.scaled_potential(pair)
    quad = _quad_for(cfg, pair)
    coupling = cfg.model.couplings.get(pair)
    ks = cfg.floats("experiment", "k_list") if args.k is None else [args.k]
    rows = [
        {"k": k, "coupling": coupling, "mu": tb.mu_max(pot, coupling, k, quad)}
        for k in sorted(ks)
    ]
    emit_csv(rows, ["k", "coupling", "mu"], out)
    return EXIT_OK


def _cmd_two_body_classify(cfg: RunConfig, args, out) -> int:
    rows = []
    for pair in PAIRS:
        pot = cfg.model.scaled_potential(pair)
        lam = cfg.model.couplings.get(pair)
        if pot.is_zero() or lam == 0.0:
            rows.append(
                {"pair": pair, "coupling": lam, "mu1": 0.0,
                 "category": "unbound_with_margin", "ground_energy": None}
            )
            continue
        quad = _quad_for(cfg, pair)
        cls = tb.classify_pair(
            pot, lam, quad, cfg.model.couplings.margin_epsilon,
            resonance_tol=cfg.float("numerics", "resonance_tol"),
        )
        rows.append(
            {"pair": pair, "coupling": lam, "mu1": cls.mu1,
             "category": cls.category.value, "ground_energy": cls.ground_energy}
        )
    emit_csv(rows, ["pair", "coupling", "mu1", "category", "ground_energy"], out)
    return EXIT_OK


def _cmd_two_body_w_probe(cfg: RunConfig, args, out) -> int:
    pair = args.pair
    pot = cfg.model.scaled_potential(pair)
    quad = _quad_for(cfg, pair)
    res = tb.resonance_data(pot, quad)
    ks = cfg.floats("experiment", "k_list")
    rows = [
        {"k": r.k, "w_norm": r.w_norm, "akw": r.akw, "z_norm": r.z_norm}
        for r in tb.w_decomposition_probe(pot, res, sorted(ks), quad)
    ]
    emit_csv(rows, ["k", "w_norm", "akw", "z_norm"], out)
    return EXIT_OK


def _ground_columns(gs: vr.GroundState, thr: float, ball, radii) -> dict:
    """e_gr, e_thr, bound_states and one p_r<R> per radius of a variational ground state."""
    row = {"e_gr": gs.energy, "e_thr": thr,
           "bound_states": int(np.sum(gs.eigenvalues < thr - ex.EPS_NUM))}
    for R, p in zip(radii, vr.probability_inside(ball, gs.coefficients)):
        row[f"p_r{_fmt(R)}"] = float(p)
    return row


def _cmd_three_body_ground(cfg: RunConfig, args, out) -> int:
    basis = _basis(cfg)
    radii = cfg.floats("experiment", "radii")
    gs = vr.solve_ground(cfg.model, basis)
    row = _ground_columns(gs, vr.hvz_bottom(cfg.model), vr.ball_matrices(basis, radii), radii)
    header = ["e_gr", "e_thr", "bound_states", "basis_size"] + [f"p_r{_fmt(R)}" for R in radii]
    emit_csv([{**row, "basis_size": basis.size}], header, out)
    return EXIT_OK


def _sweep_point(cfg: RunConfig, shared, scale: float, radii) -> dict:
    """One sweep row; shared = (HamiltonianMatrices, ball matrices, threshold operators)."""
    hm, ball, ops = shared
    m = cfg.model.with_couplings(cfg.model.couplings.scaled(scale))
    row = {
        "scale": scale,
        "lambda12": m.couplings.lambda12,
        "lambda13": m.couplings.lambda13,
        "lambda23": m.couplings.lambda23,
        **_ground_columns(hm.ground(m.couplings), vr.hvz_bottom(m), ball, radii),
    }
    try:
        row["bs_radius"] = fd.extrapolated_radius(ops, scale)
    except fd.PairThresholdError:
        row["bs_radius"] = None
    return row


def _cmd_three_body_sweep(cfg: RunConfig, args, out) -> int:
    radii = cfg.floats("experiment", "radii")
    scales = cfg.floats("experiment", "scale_grid")
    if not scales:
        raise ConfigError("experiment.scale_grid must list sweep points")
    store = ResultStore(args.store, cfg.config_hash()) if args.store else None
    rows_by_index: dict[int, dict] = {} if store is None else dict(store.rows)
    pending = [(i, s) for i, s in enumerate(scales) if i not in rows_by_index]
    if pending:  # the coupling-independent work: built once, scaled per point
        basis = _basis(cfg)
        shared = (
            vr.hamiltonian_matrices(cfg.model, basis),
            vr.ball_matrices(basis, radii),
            fd.threshold_operators(cfg.model, **_grid_kw(cfg)),
        )
    # each row is stored as it is made, so a failed point loses none before it
    for i, s in pending:
        rows_by_index[i] = row = _sweep_point(cfg, shared, s, radii)
        if store is not None:
            store.record(i, row)

    rows = [rows_by_index[i] for i in sorted(rows_by_index)]
    header = ["scale", "lambda12", "lambda13", "lambda23", "e_gr", "e_thr", "bound_states"]
    header += [f"p_r{_fmt(R)}" for R in radii]
    header.append("bs_radius")
    emit_csv(rows, header, out)
    return EXIT_OK


def _cmd_three_body_dichotomy(cfg: RunConfig, args, out) -> int:
    basis = _basis(cfg)
    scenario = ex.Scenario(args.scenario or cfg.get("experiment", "scenario"))
    report = ex.spreading_dichotomy(
        scenario,
        cfg.model,
        basis,
        r0=cfg.float("experiment", "r0") if cfg.raw.get(("experiment", "r0")) else None,
        energy_targets=cfg.floats("experiment", "energy_targets"),
        floor=cfg.float("experiment", "floor"),
        ceiling_factor=cfg.float("experiment", "ceiling_factor"),
        scale_bracket=tuple(cfg.floats("experiment", "scale_bracket")),
    )
    rows = [
        {
            "lambda12": r.couplings.lambda12,
            "lambda13": r.couplings.lambda13,
            "lambda23": r.couplings.lambda23,
            "e_gr": r.e_gr,
            "p_r0": r.p_r0,
            "p_r1": r.p_r1,
        }
        for r in report.rows
    ]
    emit_csv(rows, ["lambda12", "lambda13", "lambda23", "e_gr", "p_r0", "p_r1"], out)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return EXIT_OK if report.verdict != "inconclusive" else EXIT_INCONCLUSIVE


def _cmd_three_body_efimov(cfg: RunConfig, args, out) -> int:
    basis = _basis(cfg)
    scan = ex.efimov_scan(cfg.model, basis,
                          resonance_tol=cfg.float("numerics", "resonance_tol"))
    rows = [
        {"level": i, "energy": e,
         "ratio_to_next": scan.ratios[i] if i < len(scan.ratios) else None}
        for i, e in enumerate(scan.levels)
    ]
    emit_csv(rows, ["level", "energy", "ratio_to_next"], out)
    print(f"count: {scan.count}", file=sys.stderr)
    return EXIT_OK


def _cmd_three_body_theta0(cfg: RunConfig, args, out) -> int:
    basis = _basis(cfg)
    bracket = tuple(cfg.floats("experiment", "theta_bracket"))
    pair = cfg.get("experiment", "vary_pair")
    theta0 = ex.find_theta0(cfg.model, bracket, basis, pair=pair)
    emit_csv([{"pair": pair, "theta0": theta0}], ["pair", "theta0"], out)
    return EXIT_OK


def _cmd_three_body_bs_radius(cfg: RunConfig, args, out) -> int:
    rows = []
    for z in sorted(cfg.floats("experiment", "z_list")):
        sol = fd.faddeev_solve(fd.assemble_block_operator(cfg.model, z, **_grid_kw(cfg)))
        rows.append({"z": z, "spectral_radius": sol.spectral_radius, "residual": sol.residual})
    emit_csv(rows, ["z", "spectral_radius", "residual"], out)
    return EXIT_OK


def _cmd_three_body_cross_validate(cfg: RunConfig, args, out) -> int:
    basis = _basis(cfg)
    report = ex.cross_validate(
        cfg.model,
        basis,
        scale_bracket=tuple(cfg.floats("experiment", "scale_bracket")),
        **_grid_kw(cfg),
    )
    rows = [
        {"scale": r.scale, "e_gr": r.e_gr, "bs_radius": r.bs_radius,
         "consistent": r.consistent}
        for r in report.rows
    ]
    emit_csv(rows, ["scale", "e_gr", "bs_radius", "consistent"], out)
    print(
        f"variational_scale: {_fmt(report.variational_scale)}  "
        f"bs_scale: {_fmt(report.bs_scale)}  "
        f"disagreement: {_fmt(report.rel_disagreement)}",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_INCONCLUSIVE


def _cmd_checks_bounds(cfg: RunConfig, args, out) -> int:
    model = cfg.model
    quad = _quad_for(cfg, "12")
    zs = sorted(cfg.floats("experiment", "z_list"))
    rows = []
    frame = model.frame("12")
    for z in zs:
        hs = fd.hs_norm_K2(model.scaled_potential("12"), model.potential("23"), frame, z, quad)
        rows.append({"check": "hs_bound", "z": z, "lhs": hs.hs_norm_sq,
                     "rhs": hs.bound, "passed": hs.passed})
    pairs_z = [(zs[i], zs[i + 1]) for i in range(len(zs) - 1)]
    for row_pair, col_pair in (("12", "12"), ("12", "23")):
        for c in fd.continuity_modulus_check(model, row_pair, col_pair, pairs_z, quad):
            rows.append({"check": f"continuity_{row_pair}_{col_pair}", "z": c.z1,
                         "lhs": c.norm_diff, "rhs": c.bound, "passed": c.passed})
    for pair in PAIRS:
        lam = model.couplings.get(pair)
        rep = fd.subthreshold_bound_check(
            model.scaled_potential(pair), lam, model.couplings.margin_epsilon, zs, quad
        )
        for r in rep.rows:
            rows.append({"check": f"subthreshold_{pair}", "z": r.z, "lhs": r.lhs,
                         "rhs": r.rhs, "passed": r.passed and rep.precondition_met})
    for g in fd.green6_bound_check(cfg.floats("experiment", "xi_list")):
        rows.append({"check": "green6", "z": g.xi, "lhs": g.value,
                     "rhs": g.bound, "passed": g.passed})
    emit_csv(rows, ["check", "z", "lhs", "rhs", "passed"], out)
    ok = all(r["passed"] for r in rows)
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_checks_green6(cfg: RunConfig, args, out) -> int:
    rows = [
        {"xi": g.xi, "value": g.value, "bound": g.bound, "passed": g.passed}
        for g in fd.green6_bound_check(cfg.floats("experiment", "xi_list"))
    ]
    emit_csv(rows, ["xi", "value", "bound", "passed"], out)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_NUMERIC


def _cmd_checks_jlog(cfg: RunConfig, args, out) -> int:
    pot = cfg.model.potential("23")
    result = fd.j_epsilon_divergence(
        pot.value, cfg.float("experiment", "eps0"), cfg.floats("experiment", "z_list")
    )
    rows = [
        {"z": z, "j": j, "lower_bound": lb, "r_squared": result.r_squared}
        for z, j, lb in zip(result.z_values, result.j_values, result.lower_bounds)
    ]
    emit_csv(rows, ["z", "j", "lower_bound", "r_squared"], out)
    return EXIT_OK if result.bound_holds else EXIT_NUMERIC


def _cmd_checks_merkuriev(cfg: RunConfig, args, out) -> int:
    r0 = cfg.float("experiment", "r0") if cfg.raw.get(("experiment", "r0")) else 1.0
    rows = [
        {"k": m.k, "r": m.r, "p_closed": m.closed_form, "p_quadrature": m.quadrature}
        for m in ex.merkuriev_spreading(sorted(cfg.floats("experiment", "k_list")), r0)
    ]
    emit_csv(rows, ["k", "r", "p_closed", "p_quadrature"], out)
    return EXIT_OK


def _cmd_validate_config(cfg: RunConfig, args, out) -> int:
    b1 = cfg.float("experiment", "envelope_b1")
    b2 = cfg.float("experiment", "envelope_b2")
    report = validate_requirements(cfg.model, (b1, b2))
    rows = [
        {"requirement": c.name, "passed": c.passed, "detail": c.detail.replace(",", ";")}
        for c in report.checks
    ]
    emit_csv(rows, ["requirement", "passed", "detail"], out)
    return EXIT_OK


_SUBCOMMANDS = {
    ("two-body", "threshold"): _cmd_two_body_threshold,
    ("two-body", "mu-curve"): _cmd_two_body_mu_curve,
    ("two-body", "classify"): _cmd_two_body_classify,
    ("two-body", "w-probe"): _cmd_two_body_w_probe,
    ("three-body", "ground"): _cmd_three_body_ground,
    ("three-body", "sweep"): _cmd_three_body_sweep,
    ("three-body", "dichotomy"): _cmd_three_body_dichotomy,
    ("three-body", "efimov"): _cmd_three_body_efimov,
    ("three-body", "theta0"): _cmd_three_body_theta0,
    ("three-body", "bs-radius"): _cmd_three_body_bs_radius,
    ("three-body", "cross-validate"): _cmd_three_body_cross_validate,
    ("checks", "bounds"): _cmd_checks_bounds,
    ("checks", "green6"): _cmd_checks_green6,
    ("checks", "jlog"): _cmd_checks_jlog,
    ("checks", "merkuriev"): _cmd_checks_merkuriev,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fewbody", description=__doc__)
    sub = ap.add_subparsers(dest="group", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true", help="suppress the config echo")

    for group, names in (
        ("two-body", ["threshold", "mu-curve", "classify", "w-probe"]),
        ("three-body", ["ground", "sweep", "dichotomy", "efimov", "theta0",
                        "bs-radius", "cross-validate"]),
        ("checks", ["bounds", "green6", "jlog", "merkuriev"]),
    ):
        gp = sub.add_parser(group)
        gsub = gp.add_subparsers(dest="command", required=True)
        for name in names:
            p = gsub.add_parser(name)
            common(p)
            if group == "two-body" and name != "classify":
                p.add_argument("--pair", default="12", choices=list(PAIRS))
            if (group, name) == ("two-body", "mu-curve"):
                p.add_argument("--k", type=float, default=None)
            if (group, name) == ("two-body", "threshold"):
                p.add_argument("--tol", type=float, default=None)
            if (group, name) == ("three-body", "sweep"):
                p.add_argument("--store", default=None,
                               help="JSONL result store for resumable sweeps")
            if (group, name) == ("three-body", "dichotomy"):
                p.add_argument("--scenario", default=None,
                               choices=[s.value for s in ex.Scenario])

    vp = sub.add_parser("validate-config")
    common(vp)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    if args.seed is not None:
        # the effective seed, not the file text, enters config_hash(): a store
        # written under one random basis refuses a resume under another
        cfg.raw[("numerics", "seed")] = str(args.seed)
        object.__setattr__(
            cfg, "basis_spec",
            vr.BasisSpec(**{**cfg.basis_spec.__dict__, "seed": args.seed}),
        )
    if not args.quiet:
        cfg.echo()

    if args.group == "validate-config":
        handler = _cmd_validate_config
    else:
        handler = _SUBCOMMANDS[(args.group, args.command)]

    out = _open_out(args)
    try:
        return handler(cfg, args, out)
    except (ConfigError, ex.BracketInvalidError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        ex.PathPointUnboundError,
        ex.PairDriftError,
        fd.PairThresholdError,
        fd.AngleQuadratureError,
        tb.IntegrationUnderresolvedError,
        tb.NotAtThresholdError,
        tb.ResonanceWindowError,
        vr.IllConditionedBasisError,
        ValueError,
    ) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
