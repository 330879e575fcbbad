"""The three benchmark workloads: seeded inputs, the operation, output checks.

Every operation draws its own model (masses, couplings) and its own small
stochastic basis extension from (seed, workload, operation index), so no two
operations share a model or a basis: a cache can only earn a gain inside one
operation, which is what a fresh CLI process gets.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Critical coupling of the unit Gaussian well for 2*mu = 1, range 1 (pinned by
# the radial shooting oracle in the test suite).  A unit Gaussian pair of
# reduced mass mu has its threshold at GAUSS_LAMBDA_STAR / (2 mu).
GAUSS_LAMBDA_STAR = 2.684004650924483
PAIRS = ("12", "13", "23")
_PAIR_INDEX = {"12": (0, 1), "13": (0, 2), "23": (1, 2)}

# Output tolerances: no looser than the equivalence targets for the roadmap's
# speed-ups (1e-10 relative on radii, energies, P(R); the old bisection
# tolerances on thresholds).
REL_TOL_VALUE = 1e-10
REL_TOL_VARIATIONAL_SCALE = 1e-4
REL_TOL_BS_SCALE = 2e-4
MAX_RESIDUAL = 1e-8


def pair_threshold(masses, pair: str) -> float:
    i, j = _PAIR_INDEX[pair]
    mu = masses[i] * masses[j] / (masses[i] + masses[j])
    return GAUSS_LAMBDA_STAR / (2.0 * mu)


def _rng(seed: int, workload_id: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_id, i])


def _config_text(masses, couplings, numerics: dict, experiment: dict) -> str:
    lines = ["[model]"]
    lines += [f"m{k + 1} = {m!r}" for k, m in enumerate(masses)]
    for pair, lam in zip(PAIRS, couplings):
        lines += [f"pair{pair}.kind = gaussian", f"lambda{pair} = {lam!r}"]
    for section, items in (("numerics", numerics), ("experiment", experiment)):
        if items:
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in items.items()]
    return "\n".join(lines) + "\n"


def _read_csv(text: str) -> tuple[list[str], list[dict]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


def _rel_ok(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(abs(ref), 1e-300)


@dataclass
class Op:
    spec: dict  # the drawn input, JSON-serializable
    config: Path | None = None
    out: Path | None = None


class CliWorkload:
    """An operation is one in-process ``fewbody.cli.main`` call on a config file."""

    name = ""
    workload_id = 0
    argv: tuple = ()

    def draw(self, seed: int, i: int) -> dict:
        raise NotImplementedError

    def config_text(self, spec: dict) -> str:
        raise NotImplementedError

    def prepare(self, seed: int, i: int, workdir: Path) -> Op:
        spec = self.draw(seed, i)
        cfg = workdir / f"{self.name}-{i}.cfg"
        cfg.write_text(self.config_text(spec))
        return Op(spec=spec, config=cfg, out=workdir / f"{self.name}-{i}.csv")

    def run(self, op: Op, fewbody) -> dict:
        rc = fewbody.cli.main(
            [*self.argv, "--config", str(op.config), "--quiet", "--out", str(op.out)]
        )
        text = op.out.read_text() if op.out.exists() else ""
        op.config.unlink()
        if op.out.exists():
            op.out.unlink()
        return {"exit_code": rc, "csv": text}


class CoupledRadius(CliWorkload):
    """``three-body bs-radius`` on unequal masses, each pair below its threshold."""

    name = "coupled-radius"
    workload_id = 1
    argv = ("three-body", "bs-radius")
    z_list = (1e-3, 1e-2)

    def draw(self, seed, i):
        rng = _rng(seed, self.workload_id, i)
        masses = (1.0, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        fractions = [float(f) for f in rng.uniform(0.6, 0.95, size=3)]
        couplings = [f * pair_threshold(masses, p) for f, p in zip(fractions, PAIRS)]
        return {"masses": masses, "couplings": couplings}

    def config_text(self, spec):
        return _config_text(spec["masses"], spec["couplings"], {},
                            {"z_list": "1e-2,1e-3"})

    def summary(self, output) -> dict:
        _, rows = _read_csv(output["csv"])
        return {"radius": [float(r["spectral_radius"]) for r in rows]}

    def check(self, op, output, ref) -> list[str]:
        if output["exit_code"] != 0:
            return [f"exit code {output['exit_code']}"]
        header, rows = _read_csv(output["csv"])
        if header != ["z", "spectral_radius", "residual"] or len(rows) != 2:
            return [f"unexpected CSV shape {header} x {len(rows)}"]
        problems = []
        for z, row in zip(self.z_list, rows):
            rad, res = float(row["spectral_radius"]), float(row["residual"])
            if float(row["z"]) != z:
                problems.append(f"row z={row['z']} (expected {z})")
            if not (math.isfinite(rad) and rad >= 0.0):
                problems.append(f"radius {rad} at z={z}")
            if not (math.isfinite(res) and abs(res) <= MAX_RESIDUAL):
                problems.append(f"residual {res} at z={z}")
        if ref is not None and not problems:
            for rad, r0 in zip(self.summary(output)["radius"], ref["radius"]):
                if not _rel_ok(rad, r0, REL_TOL_VALUE):
                    problems.append(f"radius {rad!r} vs reference {r0!r}")
        return problems


class Localization(CliWorkload):
    """``three-body ground`` with P(10) and P(30) on the default frames basis."""

    name = "localization"
    workload_id = 2
    argv = ("three-body", "ground")
    n_random = 8

    def draw(self, seed, i):
        rng = _rng(seed, self.workload_id, i)
        scale = float(rng.uniform(0.82, 0.92))
        basis_seed = int(rng.integers(0, 2**31))
        return {"scale": scale, "coupling": scale * GAUSS_LAMBDA_STAR, "basis_seed": basis_seed}

    def config_text(self, spec):
        lam = spec["coupling"]
        return _config_text(
            (1.0, 1.0, 1.0), (lam, lam, lam),
            {"basis.n_random": self.n_random, "seed": spec["basis_seed"]},
            {"radii": "10,30"},
        )

    def summary(self, output) -> dict:
        _, rows = _read_csv(output["csv"])
        row = rows[0]
        return {k: float(row[k]) for k in ("e_gr", "e_thr", "p_r10", "p_r30")} | {
            "basis_size": int(row["basis_size"])
        }

    def check(self, op, output, ref) -> list[str]:
        if output["exit_code"] != 0:
            return [f"exit code {output['exit_code']}"]
        header, rows = _read_csv(output["csv"])
        if header != ["e_gr", "e_thr", "bound_states", "basis_size", "p_r10", "p_r30"] \
                or len(rows) != 1:
            return [f"unexpected CSV shape {header} x {len(rows)}"]
        s = self.summary(output)
        values = [s["e_gr"], s["e_thr"], s["p_r10"], s["p_r30"]]
        if not all(math.isfinite(v) for v in values):
            return [f"non-finite output {values}"]
        problems = []
        if not s["e_gr"] <= s["e_thr"]:
            problems.append(f"e_gr {s['e_gr']} above e_thr {s['e_thr']}")
        if not 0.0 <= s["p_r10"] <= s["p_r30"] <= 1.0:
            problems.append(f"P(10)={s['p_r10']}, P(30)={s['p_r30']} not ordered in [0, 1]")
        if ref is not None and not problems:
            if s["basis_size"] != ref["basis_size"]:
                problems.append(f"basis size {s['basis_size']} vs reference {ref['basis_size']}")
            for k in ("e_gr", "e_thr", "p_r10", "p_r30"):
                if not _rel_ok(s[k], ref[k], REL_TOL_VALUE):
                    problems.append(f"{k} {s[k]!r} vs reference {ref[k]!r}")
        return problems


class CrossThreshold:
    """``experiments.cross_validate`` on the criterion-6 setup at a seeded base coupling."""

    name = "cross-threshold"
    workload_id = 3
    n_random = 12

    def prepare(self, seed, i, workdir) -> Op:
        rng = _rng(seed, self.workload_id, i)
        base = float(rng.uniform(0.77, 0.83))
        basis_seed = int(rng.integers(0, 2**31))
        return Op(spec={"base": base, "coupling": base * GAUSS_LAMBDA_STAR,
                        "basis_seed": basis_seed})

    def run(self, op: Op, fewbody) -> dict:
        model_mod, vr = fewbody.model, fewbody.variational
        masses = model_mod.MassSet(1.0, 1.0, 1.0)
        pot = model_mod.PotentialSpec("gaussian", depth=1.0, range=1.0)
        lam = op.spec["coupling"]
        model = model_mod.ModelSpec(
            masses, pot, pot, pot, model_mod.CouplingConfig(lam, lam, lam, margin_epsilon=0.2)
        )
        spec = vr.BasisSpec(0.25, 15.0, 9, 0.25, 400.0, 14, "frames",
                            n_random=self.n_random, seed=op.spec["basis_seed"])
        basis = vr.build_basis(spec, masses)
        report = fewbody.experiments.cross_validate(
            model, basis, scale_bracket=(0.9, 1.1), n_grid=2, n_x=16, n_p_per_panel=4
        )
        return {
            "passed": bool(report.passed),
            "variational_scale": float(report.variational_scale),
            "bs_scale": float(report.bs_scale),
            "rel_disagreement": float(report.rel_disagreement),
            "basis_size": int(basis.size),
        }

    def summary(self, output) -> dict:
        return output

    def check(self, op, output, ref) -> list[str]:
        if not output["passed"]:
            return [f"cross-validation failed: {output}"]
        problems = []
        if ref is not None:
            for k, tol in (("variational_scale", REL_TOL_VARIATIONAL_SCALE),
                           ("bs_scale", REL_TOL_BS_SCALE)):
                if not _rel_ok(output[k], ref[k], tol):
                    problems.append(f"{k} {output[k]!r} vs reference {ref[k]!r}")
        return problems


WORKLOADS = {w.name: w for w in (CoupledRadius(), Localization(), CrossThreshold())}
