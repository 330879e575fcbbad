"""Scenario layer: threshold tuning, the spreading dichotomy, level scans.

All 3-body numbers here are arbitrated by two solvers that share no code
path: the variational correlated-Gaussian diagonalization and the coupled
pair-component spectral radius.  A variational threshold or target energy
on an affine coupling path is one definite-pencil eigensolve, not a search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .model import CouplingConfig, ModelSpec, PAIRS, Quadrature
from . import faddeev as fd
from . import twobody as tb
from . import variational as vr

EPS_NUM = 1e-8  # energies above -EPS_NUM count as "no bound state"
# cross_validate scans the couplings over this span times the variational threshold
_SCAN_SPAN = (0.85, 1.15)


class BracketInvalidError(ValueError):
    pass


class PathPointUnboundError(RuntimeError):
    pass


class PairDriftError(RuntimeError):
    """A pair left its declared classification along a coupling path."""


class Scenario(Enum):
    NO_PAIR_RESONANCE = "no-pair-resonance"
    PAIR_RESONANCE = "pair-resonance"


@dataclass(frozen=True)
class DichotomyRow:
    lambda12: float
    lambda13: float
    lambda23: float
    e_gr: float
    p_r0: float
    p_r1: float


@dataclass(frozen=True)
class DichotomyReport:
    r0: float
    rows: tuple[DichotomyRow, ...]
    verdict: str


def _path_couplings(model: ModelSpec, knob: str, v: float) -> CouplingConfig:
    """Couplings at knob value v: "scale" multiplies them all, a pair name sets that one."""
    if knob == "scale":
        return model.couplings.scaled(v)
    return model.couplings.replace(knob, v)


def _knob_at_level(
    hm: vr.HamiltonianMatrices,
    model: ModelSpec,
    knob: str,
    bracket: tuple[float, float],
    target: float,
) -> float:
    """Knob value in the bracket where E_gr - hvz_bottom(lower end) = target < 0.

    One HamiltonianMatrices.crossing eigensolve.  BracketInvalidError when the
    level is already at or below target at the lower end, still above it at
    the upper end, or the HVZ bottom moved (a pair crossed its own threshold).
    """
    lo, hi = bracket
    if not lo < hi:
        raise BracketInvalidError(f"empty bracket {bracket}")
    start, end = _path_couplings(model, knob, lo), _path_couplings(model, knob, hi)
    bottom = vr.hvz_bottom(model.with_couplings(start))
    try:
        t = hm.crossing(start, end, bottom + target)
    except np.linalg.LinAlgError as err:
        raise BracketInvalidError(
            f"E_gr already at or below {target:.3e} at {knob}={lo} ({err})"
        ) from err
    if t > 1.0:
        raise BracketInvalidError(f"E_gr still above {target:.3e} at {knob}={hi}")
    v = lo + t * (hi - lo)
    moved = vr.hvz_bottom(model.with_couplings(_path_couplings(model, knob, v)))
    if moved != bottom:
        raise BracketInvalidError(
            f"HVZ bottom moved from {bottom:.3e} to {moved:.3e} by {knob}={v}: "
            "a pair crossed its own threshold"
        )
    return v


def find_theta0(
    model: ModelSpec,
    theta_bracket: tuple[float, float],
    basis: vr.GaussianBasis,
    pair: str = "13",
) -> float:
    """Coupling of `pair` at which the 3-body level detaches from threshold.

    Where the variational ground energy reaches -EPS_NUM below the HVZ
    bottom, from one pencil eigensolve; the couplings of the other pairs are
    taken from the model as-is.
    """
    hi = model.with_couplings(_path_couplings(model, pair, theta_bracket[1]))
    return _knob_at_level(vr.hamiltonian_matrices(hi, basis), model, pair, theta_bracket, -EPS_NUM)


def spreading_dichotomy(
    scenario: Scenario,
    model: ModelSpec,
    basis: vr.GaussianBasis,
    r0: Optional[float] = None,
    energy_targets: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4),
    floor: float = 0.25,
    ceiling_factor: float = 0.1,
    scale_bracket: tuple[float, float] = (0.5, 1.5),
) -> DichotomyReport:
    """P(R0) along a coupling path whose ground energy rises to the threshold.

    no-pair-resonance: all couplings scaled over scale_bracket; every pair
    must hold the R7 margin along the path and the verdict demands
    inf P(R0) >= floor.  pair-resonance: pair (12) pinned at its coupling
    threshold and lambda13 tuned up to the model's value; the verdict demands
    a monotone drop of P(R0) below ceiling_factor times its first value.
    Each row sits where one pencil eigensolve puts E_gr at its target; one
    ball build serves P(R0) and P(3 R0) of every row.
    """
    depth = max(model.potential(p).depth for p in PAIRS)
    targets = sorted((abs(t) * depth for t in energy_targets), reverse=True)
    if r0 is None:
        r0 = 10.0 * model.max_range()
    quads = {p: Quadrature.for_potential(model.scaled_potential(p)) for p in PAIRS}

    if scenario is Scenario.NO_PAIR_RESONANCE:
        knob, bracket = "scale", scale_bracket
    else:
        lam12 = model.couplings.lambda12
        cls = tb.classify_pair(
            model.scaled_potential("12"), lam12, quads["12"], model.couplings.margin_epsilon
        )
        if cls.category is not tb.PairClass.RESONANT:
            raise PairDriftError(
                f"pair 12 must sit at its coupling threshold (got {cls.category.value})"
            )
        theta_hi = model.couplings.lambda13
        knob, bracket = "13", (1e-6 * theta_hi, theta_hi)
    hm = vr.hamiltonian_matrices(
        model.with_couplings(_path_couplings(model, knob, bracket[1])), basis
    )

    ball = vr.ball_matrices(basis, (r0, 3.0 * r0))
    rows: list[DichotomyRow] = []
    for tgt in targets:
        v = _knob_at_level(hm, model, knob, bracket, -tgt)
        m = model.with_couplings(_path_couplings(model, knob, v))
        if scenario is Scenario.NO_PAIR_RESONANCE:
            for pair in PAIRS:
                lam = m.couplings.get(pair)
                if lam == 0.0:
                    continue
                cls = tb.classify_pair(
                    m.scaled_potential(pair), lam, quads[pair], m.couplings.margin_epsilon
                )
                if cls.category is not tb.PairClass.UNBOUND_WITH_MARGIN:
                    raise PairDriftError(
                        f"pair {pair} classified {cls.category.value} at scale path point"
                    )
        gs = hm.ground(m.couplings)
        e_rel = gs.energy - vr.hvz_bottom(m)
        if e_rel >= -EPS_NUM:
            raise PathPointUnboundError(f"lost the bound state at target {tgt:.3e}")
        p_r0, p_r1 = map(float, vr.probability_inside(ball, gs.coefficients))
        rows.append(DichotomyRow(*map(m.couplings.get, PAIRS), e_rel, p_r0, p_r1))

    p = [row.p_r0 for row in rows]
    if scenario is Scenario.NO_PAIR_RESONANCE:
        verdict = "non-spreading" if min(p) >= floor else "inconclusive"
    else:
        monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(p, p[1:]))
        collapsed = p[-1] <= ceiling_factor * p[0]
        verdict = "totally-spreading" if monotone and collapsed else "inconclusive"
    return DichotomyReport(r0=float(r0), rows=tuple(rows), verdict=verdict)


@dataclass(frozen=True)
class EfimovLevel:
    level: int
    energy: float
    ratio_to_next: Optional[float]


def efimov_scan(
    model: ModelSpec,
    basis: vr.GaussianBasis,
    resonance_tol: float = 1e-4,
) -> list[EfimovLevel]:
    """Negative-energy levels with (at least) two pairs at their thresholds.

    Deepest first, each with its ratio to the next level (None for the last).
    """
    resonant = 0
    for pair in model.active_pairs():
        pot = model.scaled_potential(pair)
        cls = tb.classify_pair(
            pot, model.couplings.get(pair), Quadrature.for_potential(pot),
            model.couplings.margin_epsilon, resonance_tol=resonance_tol,
        )
        if cls.category is tb.PairClass.RESONANT:
            resonant += 1
    if resonant < 2:
        raise PairDriftError(f"need two resonant pairs, found {resonant}")
    gs = vr.solve_ground(model, basis)
    thr = vr.hvz_bottom(model)
    levels = [float(e) for e in gs.eigenvalues if e < thr - EPS_NUM]
    return [EfimovLevel(i, e, e / levels[i + 1] if i + 1 < len(levels) else None)
            for i, e in enumerate(levels)]


@dataclass(frozen=True)
class MerkurievRow:
    k: float
    r: float
    p_closed: float
    p_quadrature: float


def merkuriev_spreading(k_list: Sequence[float], r: float) -> list[MerkurievRow]:
    """Ball probability of the normalized hyperradial tail family exp(-k rho)/rho^{5/2}.

    The rho^5 volume element cancels the prefactor, so P(R) = 1 - exp(-2kR),
    taken as -expm1(-2kR) so that small kR does not cancel; each row carries
    an independent quadrature evaluation of the same ratio.
    """
    if r <= 0:
        raise ValueError("R must be positive")
    rows = []
    x, w = np.polynomial.legendre.leggauss(200)
    for k in k_list:
        if k <= 0:
            raise ValueError("k must be positive")
        closed = -math.expm1(-2.0 * k * r)
        inner = 0.5 * r * np.sum(w * np.exp(-2.0 * k * (0.5 * r * (x + 1.0))))
        span = 40.0 / k
        t = 0.5 * span * (x + 1.0) + r
        outer = 0.5 * span * np.sum(w * np.exp(-2.0 * k * t))
        rows.append(
            MerkurievRow(
                k=float(k), r=float(r), p_closed=closed,
                p_quadrature=float(inner / (inner + outer)),
            )
        )
    return rows


@dataclass(frozen=True)
class CrossValidationRow:
    scale: float
    e_gr: float
    bs_radius: float
    consistent: bool


@dataclass(frozen=True)
class CrossValidationReport:
    variational_scale: float
    bs_scale: float
    rel_disagreement: float
    rows: tuple[CrossValidationRow, ...]

    @property
    def passed(self) -> bool:
        return self.rel_disagreement <= 0.02 and all(r.consistent for r in self.rows)


def cross_validate(
    model: ModelSpec,
    basis: vr.GaussianBasis,
    scale_bracket: tuple[float, float] = (0.5, 1.0),
    n_grid: int = 10,
    z_pair: tuple[float, float] = (1e-2, 1e-3),
    **grid_kw,
) -> CrossValidationReport:
    """Threshold agreement plus sign consistency on a coupling scan.

    The two solvers share no code path; the scan checks radius < 1 wherever
    the variational energy says unbound and radius > 1 wherever it says
    clearly bound.  Each solver builds its coupling-independent work once:
    the variational matrices, and one block operator per z in z_pair.  Each
    threshold is an eigensolve, not a search: the variational one
    (E_gr = -EPS_NUM; the HVZ bottom is zero on any valid bracket) one
    pencil eigensolve, the coupled-solver one a Lanczos solve per z
    (fd.threshold_scale).  Either outside scale_bracket, lo < s <= hi, is a
    BracketInvalidError.  The scan rows take the full ground solve, so their
    energies equal solve_ground's.
    """
    hm = vr.hamiltonian_matrices(model, basis)
    s_var = _knob_at_level(hm, model, "scale", scale_bracket, -EPS_NUM)
    lo, hi = _SCAN_SPAN
    scales = [float(s) for s in np.linspace(lo * s_var, hi * s_var, n_grid)]
    energies = [hm.ground(model.couplings.scaled(s)).energy for s in scales]
    del hm  # the N x N matrices are not needed while the block operators live

    ops = fd.threshold_operators(model, z_pair, **grid_kw)
    s_bs = fd.threshold_scale(ops)
    if not scale_bracket[0] < s_bs <= scale_bracket[1]:
        raise BracketInvalidError(
            f"coupled-solver threshold scale {s_bs:.6g} outside the bracket {scale_bracket}"
        )

    rows = []
    for s, e in zip(scales, energies):
        rad = fd.extrapolated_radius(ops, s)
        if e >= -EPS_NUM:
            ok = rad < 1.0
        elif e < -1e-4:
            ok = rad > 1.0
        else:
            ok = True  # within the numerical dead band either sign is defensible
        rows.append(CrossValidationRow(scale=s, e_gr=float(e), bs_radius=rad, consistent=ok))

    rel = abs(s_bs - s_var) / s_var
    return CrossValidationReport(
        variational_scale=s_var,
        bs_scale=s_bs,
        rel_disagreement=rel,
        rows=tuple(rows),
    )
