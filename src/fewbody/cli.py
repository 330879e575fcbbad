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
from dataclasses import dataclass, fields
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
    RequirementCheck,
    validate_requirements,
)
from . import experiments as ex
from . import faddeev as fd
from . import twobody as tb
from . import variational as vr


class ConfigError(ValueError):
    pass


class NonFiniteOutputError(ArithmeticError):
    """A float cell of the CSV output is nan or infinite (exit 3, naming its column)."""


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4


# ---------------------------------------------------------------------------
# configuration schema


def _finite(text: str) -> float:
    """float(text), with nan and +-inf a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite(tok) for tok in text.split(",") if tok.strip()]


def _blank_none(convert):
    """convert, with a blank value read as no value (r0 and seed may be left empty)."""
    return lambda text: convert(text) if text.strip() else None


def _bracket(text: str) -> tuple[float, ...]:
    return tuple(_float_list(text))


# (section, key) -> (default text or None, conversion, range), every key the
# parser accepts.  The range is the least value of an integer; "positive" or
# "non-negative" for every number, or "positive with a finite square" for a
# spectral point z at energy -z^2; the allowed names; "bracket" for two
# numbers lo < hi; "non-empty" for a list with at least one value;
# "correlation" for frames or one level at least, each in (-1, 1).  A pair
# key has no conversion: _parse_potential reads it.  model._split_counts
# gives each grid panel at least 4 nodes, so a count below 4 per panel (5
# radial panels) would be raised silently.
_KEYS = {
    ("model", "m1"): ("1.0", _finite, None),
    ("model", "m2"): ("1.0", _finite, None),
    ("model", "m3"): ("1.0", _finite, None),
    ("model", "lambda12"): ("0.0", _finite, None),
    ("model", "lambda13"): ("0.0", _finite, None),
    ("model", "lambda23"): ("0.0", _finite, None),
    ("model", "margin_epsilon"): ("0.1", _finite, None),
    **{("model", f"pair{p}.{part}"): (None, None, None)
       for p in PAIRS for part in ("kind", "depth", "range", "table")},
    ("numerics", "radial_nodes"): ("64", int, 20),
    ("numerics", "faddeev_nodes"): ("28", int, 20),
    ("numerics", "p_per_panel"): ("6", int, 1),
    ("numerics", "angle_nodes"): ("32", int, 1),
    ("numerics", "resonance_tol"): ("1e-4", _finite, "positive"),
    ("numerics", "seed"): (None, _blank_none(int), None),
    ("numerics", "basis.scale_min_x"): ("0.25", _finite, "positive"),
    ("numerics", "basis.scale_max_x"): ("15.0", _finite, "positive"),
    ("numerics", "basis.n_x"): ("9", int, 1),
    ("numerics", "basis.scale_min_y"): ("0.25", _finite, "positive"),
    ("numerics", "basis.scale_max_y"): ("600.0", _finite, "positive"),
    ("numerics", "basis.n_y"): ("15", int, 1),
    ("numerics", "basis.correlations"): (
        "frames", lambda t: "frames" if t == "frames" else tuple(_float_list(t)),
        "correlation"),
    ("numerics", "basis.n_random"): ("0", int, 0),
    ("numerics", "basis.symmetrize_12"): ("false", lambda t: t.lower() in ("true", "1", "yes"),
                                          None),
    ("experiment", "scenario"): ("no-pair-resonance", str, tuple(s.value for s in ex.Scenario)),
    ("experiment", "r0"): (None, _blank_none(_finite), "non-negative"),
    ("experiment", "radii"): ("10.0,30.0", _float_list, "non-negative"),
    ("experiment", "energy_targets"): ("1e-1,1e-2,1e-3,1e-4", _float_list, "non-empty"),
    ("experiment", "floor"): ("0.25", _finite, "positive"),
    ("experiment", "ceiling_factor"): ("0.1", _finite, "positive"),
    ("experiment", "scale_bracket"): ("0.9,1.2", _bracket, "bracket"),
    ("experiment", "theta_bracket"): (None, _bracket, "bracket"),
    ("experiment", "vary_pair"): ("13", str, PAIRS),
    ("experiment", "z_list"): ("1e-3,1e-2,1e-1,1.0", _float_list,
                               "positive with a finite square"),
    ("experiment", "xi_list"): ("0.5,1.0,10.0", _float_list, "positive"),
    ("experiment", "k_list"): ("1e-2,1e-3,1e-4", _float_list, None),  # range: _k_values
    ("experiment", "scale_grid"): (None, _float_list, "non-negative"),
    ("experiment", "envelope_b1"): ("2.0", _finite, None),
    ("experiment", "envelope_b2"): ("1.0", _finite, None),
    ("experiment", "eps0"): ("1.0", _finite, "positive"),
}

_SECTION_KEYS = {s: {k for t, k in _KEYS if t == s} for s, _ in _KEYS}


@dataclass(frozen=True, eq=False)
class RunConfig:
    model: ModelSpec
    basis_spec: vr.BasisSpec
    raw: dict  # (section, key) -> string, defaults included
    values: dict  # (section, key) -> raw[(section, key)] converted; pair keys left out

    def __getitem__(self, section_key: tuple[str, str]):
        """The converted value of (section, key); ConfigError if it has none."""
        value = self.values.get(section_key)
        if value is None:
            raise ConfigError("missing key {}.{}".format(*section_key))
        return value

    def config_hash(self) -> str:
        lines = [f"{s}.{k}={v}" for (s, k), v in sorted(self.raw.items())]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    def echo(self, stream) -> None:
        cur = None
        for (s, k), v in sorted(self.raw.items()):
            if s != cur:
                print(f"[{s}]", file=stream)
                cur = s
            print(f"{k} = {v}", file=stream)


def _check_range(name: str, text: str, value, rng) -> None:
    """ConfigError naming name unless value lies in rng (see _KEYS)."""
    if isinstance(rng, tuple):
        if value not in rng:
            raise ConfigError(f"{name} = {text!r}: must be one of {', '.join(rng)}")
    elif isinstance(rng, int):
        if value < rng:
            raise ConfigError(f"{name} = {text!r}: must be at least {rng}")
    elif rng == "bracket":
        if len(value) != 2 or not value[0] < value[1]:
            raise ConfigError(f"{name} = {text!r}: must be two numbers lo,hi with lo < hi")
    elif rng == "non-empty":
        if not value:
            raise ConfigError(f"{name} = {text!r}: must list at least one value")
    elif rng == "correlation":
        if value != "frames" and not (value and all(-1.0 < v < 1.0 for v in value)):
            raise ConfigError(f"{name} = {text!r}: must be frames or levels in (-1, 1)")
    elif any(v < 0 or (v == 0 and rng != "non-negative")
             or ("square" in rng and not math.isfinite(v * v))
             for v in (value if isinstance(value, list) else [value])):
        raise ConfigError(f"{name} = {text!r}: values must be {rng}")


def _k_values(cfg: RunConfig, args, word: str) -> list[float]:
    """The k values: --k if the subcommand has it and it is given, else experiment.k_list.

    Each must be word ("positive" or "non-negative").  The range depends on
    the subcommand (mu-curve takes k = 0), so it is checked here rather than
    in _KEYS.
    """
    if getattr(args, "k", None) is None:
        name, text = "experiment.k_list", cfg.raw[("experiment", "k_list")]
        ks = cfg["experiment", "k_list"]
    else:
        name, text = "--k", args.k
        try:
            ks = [_finite(text)]
        except ValueError as err:
            raise ConfigError(f"invalid value --k = {text!r} ({err})") from None
    _check_range(name, text, ks, word)
    return ks


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


def parse_config(path, seed: Optional[int] = None) -> RunConfig:
    """Read and fully validate an INI run configuration; defaults are filled in.

    seed, if given, replaces numerics.seed before the values are converted.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not readable: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case sensitive
    try:
        cp.read(path)
    except configparser.Error as err:
        raise ConfigError(f"parse error in {path}: {err}") from err

    raw = {sk: default for sk, (default, _, _) in _KEYS.items() if default is not None}
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in cp.items(section):
            if key not in _SECTION_KEYS[section]:
                line = _find_line(path, key)
                raise ConfigError(f"unknown key {section}.{key} (line {line})")
            raw[(section, key)] = value.strip()
    if seed is not None:
        # the effective seed, not the file text, enters config_hash(): a store
        # written under one random basis refuses a resume under another
        raw[("numerics", "seed")] = str(seed)

    values = {}
    for (s, key), (_, convert, rng) in _KEYS.items():
        if convert is None or (s, key) not in raw:
            continue
        text = raw[(s, key)]
        try:
            values[(s, key)] = value = convert(text)
        except ValueError as err:
            # a mass, coupling or basis value is named with what it builds
            built = ("invalid model values: " if s == "model"
                     else "invalid numerics.basis: " if key.startswith("basis.") or key == "seed"
                     else "")
            raise ConfigError(f"{built}invalid value {s}.{key} = {text!r} ({err})") from None
        if value is not None and rng is not None:
            _check_range(f"{s}.{key}", text, value, rng)

    try:
        masses = MassSet(*(values[("model", m)] for m in ("m1", "m2", "m3")))
        couplings = CouplingConfig(*(values[("model", f"lambda{p}")] for p in PAIRS),
                                   margin_epsilon=values[("model", "margin_epsilon")])
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

    basis_spec = vr.BasisSpec(**{
        f.name: values.get(("numerics", f.name if f.name == "seed" else f"basis.{f.name}"))
        for f in fields(vr.BasisSpec)
    })
    return RunConfig(model=model, basis_spec=basis_spec, raw=raw, values=values)


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(v) -> str:
    """One CSV cell: a float to 17 digits, None empty, text with "," as ";".

    No text cell can split a row.
    """
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v).replace(",", ";")


def emit_csv(rows: Sequence, columns: Sequence[str] | type, out) -> None:
    """RFC-4180-style CSV, fixed header order, deterministic row order.

    columns is the header, with rows as dicts, or a dataclass whose fields are
    the columns, with rows its instances.  A nan or infinite float cell raises
    NonFiniteOutputError before anything is written; a None cell is blank.
    """
    if isinstance(columns, type):
        columns, rows = [f.name for f in fields(columns)], [vars(r) for r in rows]
    lines = [",".join(columns)]
    for row in rows:
        cells = [row.get(h) for h in columns]
        for h, v in zip(columns, cells):
            if isinstance(v, float) and not math.isfinite(v):
                raise NonFiniteOutputError(f"column {h} = {v!r} is not a finite number")
        lines.append(",".join(_fmt(v) for v in cells))
    out.write("".join(line + "\r\n" for line in lines))


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
    return Quadrature.for_potential(pot, n=cfg["numerics", "radial_nodes"])


def _grid_kw(cfg: RunConfig) -> dict:
    return dict(
        n_x=cfg["numerics", "faddeev_nodes"],
        n_p_per_panel=cfg["numerics", "p_per_panel"],
        n_angle=cfg["numerics", "angle_nodes"],
    )


def _basis(cfg: RunConfig) -> vr.GaussianBasis:
    if cfg.basis_spec.n_random > 0 and cfg.basis_spec.seed is None:
        raise ConfigError("numerics.seed is required when numerics.basis.n_random > 0")
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
    lam = tb.critical_coupling(pot, _quad_for(cfg, pair))
    rows = [{"potential": pot.kind, "depth": pot.depth, "range": pot.range, "lambda_star": lam}]
    emit_csv(rows, ["potential", "depth", "range", "lambda_star"], out)
    return EXIT_OK


def _cmd_two_body_mu_curve(cfg: RunConfig, args, out) -> int:
    pair = args.pair
    pot = cfg.model.scaled_potential(pair)
    quad = _quad_for(cfg, pair)
    coupling = cfg.model.couplings.get(pair)
    ks = _k_values(cfg, args, "non-negative")
    rows = [
        {"k": k, "coupling": coupling, "mu": tb.mu_max(pot, coupling, k, quad)}
        for k in sorted(ks)
    ]
    emit_csv(rows, ["k", "coupling", "mu"], out)
    return EXIT_OK


def _cmd_two_body_classify(cfg: RunConfig, args, out) -> int:
    rows = []
    for pair in PAIRS:
        lam = cfg.model.couplings.get(pair)
        cls = tb.classify_pair(
            cfg.model.scaled_potential(pair), lam, _quad_for(cfg, pair),
            cfg.model.couplings.margin_epsilon, resonance_tol=cfg["numerics", "resonance_tol"],
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
    ks = _k_values(cfg, args, "positive")
    res = tb.resonance_data(pot, quad)
    emit_csv(tb.w_decomposition_probe(pot, res, sorted(ks), quad), tb.WProbeRow, out)
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
    radii = cfg["experiment", "radii"]
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
    radii = cfg["experiment", "radii"]
    scales = cfg["experiment", "scale_grid"]
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
    scenario = ex.Scenario(args.scenario or cfg["experiment", "scenario"])
    report = ex.spreading_dichotomy(
        scenario,
        cfg.model,
        basis,
        r0=cfg.values.get(("experiment", "r0")),
        energy_targets=cfg["experiment", "energy_targets"],
        floor=cfg["experiment", "floor"],
        ceiling_factor=cfg["experiment", "ceiling_factor"],
        scale_bracket=cfg["experiment", "scale_bracket"],
    )
    emit_csv(report.rows, ex.DichotomyRow, out)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return EXIT_OK if report.verdict != "inconclusive" else EXIT_INCONCLUSIVE


def _cmd_three_body_efimov(cfg: RunConfig, args, out) -> int:
    rows = ex.efimov_scan(cfg.model, _basis(cfg), resonance_tol=cfg["numerics", "resonance_tol"])
    emit_csv(rows, ex.EfimovLevel, out)
    print(f"count: {len(rows)}", file=sys.stderr)
    return EXIT_OK


def _cmd_three_body_theta0(cfg: RunConfig, args, out) -> int:
    basis = _basis(cfg)
    bracket = cfg["experiment", "theta_bracket"]
    pair = cfg["experiment", "vary_pair"]
    theta0 = ex.find_theta0(cfg.model, bracket, basis, pair=pair)
    emit_csv([{"pair": pair, "theta0": theta0}], ["pair", "theta0"], out)
    return EXIT_OK


def _cmd_three_body_bs_radius(cfg: RunConfig, args, out) -> int:
    emit_csv(fd.radius_rows(cfg.model, cfg["experiment", "z_list"], **_grid_kw(cfg)),
             fd.RadiusRow, out)
    return EXIT_OK


def _cmd_three_body_cross_validate(cfg: RunConfig, args, out) -> int:
    basis = _basis(cfg)
    report = ex.cross_validate(
        cfg.model,
        basis,
        scale_bracket=cfg["experiment", "scale_bracket"],
        **_grid_kw(cfg),
    )
    emit_csv(report.rows, ex.CrossValidationRow, out)
    print(
        f"variational_scale: {_fmt(report.variational_scale)}  "
        f"bs_scale: {_fmt(report.bs_scale)}  "
        f"disagreement: {_fmt(report.rel_disagreement)}",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_INCONCLUSIVE


def _cmd_checks_bounds(cfg: RunConfig, args, out) -> int:
    rows = fd.inequality_suite(
        cfg.model, cfg["experiment", "z_list"], cfg["experiment", "xi_list"],
        cfg["numerics", "radial_nodes"], **_grid_kw(cfg),
    )
    emit_csv(rows, fd.BoundRow, out)
    return EXIT_OK if all(r.passed for r in rows) else EXIT_NUMERIC


def _cmd_checks_green6(cfg: RunConfig, args, out) -> int:
    rows = fd.green6_bound_check(cfg["experiment", "xi_list"])
    emit_csv(rows, fd.Green6Row, out)
    return EXIT_OK if all(r.passed for r in rows) else EXIT_NUMERIC


def _cmd_checks_jlog(cfg: RunConfig, args, out) -> int:
    rows = fd.j_epsilon_divergence(
        cfg.model.potential("23"), cfg["experiment", "eps0"], cfg["experiment", "z_list"]
    )
    emit_csv(rows, fd.JRow, out)
    return EXIT_OK if all(r.bound_holds for r in rows) else EXIT_NUMERIC


def _cmd_checks_merkuriev(cfg: RunConfig, args, out) -> int:
    r0 = cfg.values.get(("experiment", "r0"))
    ks = sorted(_k_values(cfg, args, "positive"))
    rows = ex.merkuriev_spreading(ks, 1.0 if r0 is None else r0)
    emit_csv(rows, ex.MerkurievRow, out)
    return EXIT_OK


def _cmd_validate_config(cfg: RunConfig, args, out) -> int:
    b1 = cfg["experiment", "envelope_b1"]
    b2 = cfg["experiment", "envelope_b2"]
    emit_csv(validate_requirements(cfg.model, (b1, b2)), RequirementCheck, out)
    return EXIT_OK


# the options some subcommands add to --config, --out, --seed and --quiet
_OPTIONS = {
    "pair": dict(default="12", choices=list(PAIRS)),
    "k": dict(default=None),
    "store": dict(default=None, help="JSONL result store for resumable sweeps"),
    "scenario": dict(default=None, choices=[s.value for s in ex.Scenario]),
}

# (group, command) -> (handler, *the _OPTIONS it adds); validate-config has no command
_SUBCOMMANDS = {
    ("two-body", "threshold"): (_cmd_two_body_threshold, "pair"),
    ("two-body", "mu-curve"): (_cmd_two_body_mu_curve, "pair", "k"),
    ("two-body", "classify"): (_cmd_two_body_classify,),
    ("two-body", "w-probe"): (_cmd_two_body_w_probe, "pair"),
    ("three-body", "ground"): (_cmd_three_body_ground,),
    ("three-body", "sweep"): (_cmd_three_body_sweep, "store"),
    ("three-body", "dichotomy"): (_cmd_three_body_dichotomy, "scenario"),
    ("three-body", "efimov"): (_cmd_three_body_efimov,),
    ("three-body", "theta0"): (_cmd_three_body_theta0,),
    ("three-body", "bs-radius"): (_cmd_three_body_bs_radius,),
    ("three-body", "cross-validate"): (_cmd_three_body_cross_validate,),
    ("checks", "bounds"): (_cmd_checks_bounds,),
    ("checks", "green6"): (_cmd_checks_green6,),
    ("checks", "jlog"): (_cmd_checks_jlog,),
    ("checks", "merkuriev"): (_cmd_checks_merkuriev,),
    ("validate-config", None): (_cmd_validate_config,),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fewbody", description=__doc__)
    sub = ap.add_subparsers(dest="group", required=True)
    groups = {}
    for (group, command), (handler, *options) in _SUBCOMMANDS.items():
        if command is None:
            p = sub.add_parser(group)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group).add_subparsers(dest="command",
                                                                     required=True)
            p = groups[group].add_parser(command)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true", help="suppress the config echo")
        for name in options:
            p.add_argument(f"--{name}", **_OPTIONS[name])
        p.set_defaults(handler=handler)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, seed=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        cfg.echo(sys.stderr)

    out = _open_out(args)
    try:
        return args.handler(cfg, args, out)
    except (ConfigError, ex.BracketInvalidError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        ex.PathPointUnboundError,
        ex.PairDriftError,
        fd.PairThresholdError,
        tb.IntegrationUnderresolvedError,
        tb.NotAtThresholdError,
        tb.ResonanceWindowError,
        vr.IllConditionedBasisError,
        NonFiniteOutputError,
        ValueError,
    ) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
