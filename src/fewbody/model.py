"""Problem definitions: pair potentials, masses, Jacobi frames, couplings, grids.

Units: hbar = 1 and every pair problem is expressed in mass-scaled Jacobi
coordinates, so the free operator is a bare Laplacian and all mass dependence
lives in the frame coefficients (alpha, beta, gamma) and in potential
arguments.  Potentials store the non-negative magnitude V >= 0; Hamiltonians
subtract coupling * V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

HBAR = 1.0

PAIRS = ("12", "13", "23")

# particle index layout per pair label: (i, j, spectator)
_PAIR_INDEX = {"12": (0, 1, 2), "13": (0, 2, 1), "23": (1, 2, 0)}

_POTENTIAL_KINDS = ("gaussian", "exponential", "square_well", "tabulated")


class QuadratureUnderresolvedError(RuntimeError):
    """Doubling the node count moved a reported constant by more than tol."""


class ZeroPotentialError(ValueError):
    """Operation needs a non-vanishing potential."""


@dataclass(frozen=True)
class PotentialSpec:
    """Radial pair potential magnitude V(r) >= 0 (attraction enters as -coupling*V)."""

    kind: str
    depth: float = 1.0
    range: float = 1.0
    table: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not (self.depth >= 0.0 and math.isfinite(self.depth)):
            raise ValueError("depth must be finite and >= 0")
        if self.kind == "tabulated":
            if not self.table:
                raise ValueError("tabulated potential needs (radius, value) pairs")
            radii = [r for r, _ in self.table]
            if any(b <= a for a, b in zip(radii, radii[1:])) or radii[0] < 0:
                raise ValueError("table radii must be non-negative and strictly increasing")
            object.__setattr__(self, "range", float(radii[-1]))
        elif not (self.range > 0.0 and math.isfinite(self.range)):
            raise ValueError("range must be finite and > 0")

    def value(self, r):
        """V(r), vectorized; zero beyond the last radius for tabulated wells."""
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            return self.depth * np.exp(-((r / self.range) ** 2))
        if self.kind == "exponential":
            return self.depth * np.exp(-r / self.range)
        if self.kind == "square_well":
            return self.depth * (r <= self.range).astype(float)
        radii = np.array([p[0] for p in self.table])
        vals = np.array([p[1] for p in self.table])
        return np.interp(r, radii, vals, left=vals[0], right=0.0)

    def is_nonnegative(self) -> bool:
        if self.kind == "tabulated":
            return all(v >= 0.0 for _, v in self.table)
        return True  # depth >= 0 enforced at construction

    def dilated(self, alpha: float) -> "PotentialSpec":
        """Potential r -> V(alpha * r), i.e. the well expressed in a scaled coordinate."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.kind == "tabulated":
            tab = tuple((r / alpha, v) for r, v in self.table)
            return PotentialSpec("tabulated", depth=self.depth, table=tab)
        return PotentialSpec(self.kind, depth=self.depth, range=self.range / alpha)

    def with_depth_factor(self, s: float) -> "PotentialSpec":
        """Potential with depth (and table values) multiplied by s >= 0."""
        if s < 0:
            raise ValueError("depth factor must be >= 0")
        if self.kind == "tabulated":
            tab = tuple((r, v * s) for r, v in self.table)
            return PotentialSpec("tabulated", depth=self.depth * s, table=tab)
        return PotentialSpec(self.kind, depth=self.depth * s, range=self.range)

    def is_zero(self) -> bool:
        if self.kind == "tabulated":
            return all(v == 0.0 for _, v in self.table)
        return self.depth == 0.0


@dataclass(frozen=True)
class MassSet:
    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        for m in (self.m1, self.m2, self.m3):
            if not (m > 0.0 and math.isfinite(m)):
                raise ValueError("masses must be finite and strictly positive")

    @property
    def masses(self) -> tuple[float, float, float]:
        return (self.m1, self.m2, self.m3)

    def mu(self, pair: str) -> float:
        """Reduced mass of the pair."""
        i, j, _ = _PAIR_INDEX[pair]
        mi, mj = self.masses[i], self.masses[j]
        return mi * mj / (mi + mj)

    def big_m(self, pair: str) -> float:
        """Reduced mass of (pair) vs the spectator particle."""
        i, j, l = _PAIR_INDEX[pair]
        mi, mj, ml = self.masses[i], self.masses[j], self.masses[l]
        return (mi + mj) * ml / (mi + mj + ml)


@dataclass(frozen=True)
class JacobiFrame:
    """Coefficients of the mass-scaled Jacobi coordinates adapted to one pair.

    alpha maps the scaled internal coordinate back to the physical pair
    separation; beta/gamma give the third-particle separation as a linear
    combination of the two scaled coordinates.
    """

    pair: str
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if self.gamma == 0 or not all(
            math.isfinite(v) for v in (self.alpha, self.beta, self.gamma)
        ):
            raise ValueError("frame coefficients must be finite with gamma != 0")


def make_jacobi_frame(masses: MassSet, pair: str) -> JacobiFrame:
    """Frame coefficients for the given pair, hbar = 1."""
    i, j, _ = _PAIR_INDEX[pair]
    mi, mj = masses.masses[i], masses.masses[j]
    mu = masses.mu(pair)
    alpha = HBAR / math.sqrt(2.0 * mu)
    beta = -mj * HBAR / ((mi + mj) * math.sqrt(2.0 * mu))
    gamma = HBAR / math.sqrt(2.0 * masses.big_m(pair))
    return JacobiFrame(pair=pair, alpha=alpha, beta=beta, gamma=gamma)


@dataclass(frozen=True)
class CouplingConfig:
    lambda12: float = 0.0
    lambda13: float = 0.0
    lambda23: float = 0.0
    margin_epsilon: float = 0.1

    def __post_init__(self):
        for lam in (self.lambda12, self.lambda13, self.lambda23):
            if not (lam >= 0.0 and math.isfinite(lam)):
                raise ValueError("couplings must be finite and >= 0")
        if not (self.margin_epsilon > 0.0 and math.isfinite(self.margin_epsilon)):
            raise ValueError("margin_epsilon must be finite and > 0")

    def get(self, pair: str) -> float:
        return {"12": self.lambda12, "13": self.lambda13, "23": self.lambda23}[pair]

    def replace(self, pair: str, value: float) -> "CouplingConfig":
        kw = {
            "lambda12": self.lambda12,
            "lambda13": self.lambda13,
            "lambda23": self.lambda23,
            "margin_epsilon": self.margin_epsilon,
        }
        kw[f"lambda{pair}"] = value
        return CouplingConfig(**kw)

    def scaled(self, s: float) -> "CouplingConfig":
        return CouplingConfig(
            lambda12=self.lambda12 * s,
            lambda13=self.lambda13 * s,
            lambda23=self.lambda23 * s,
            margin_epsilon=self.margin_epsilon,
        )


@dataclass(frozen=True)
class ModelSpec:
    """Full 3-body problem: masses, the three pair wells, couplings."""

    masses: MassSet
    pot12: PotentialSpec
    pot13: PotentialSpec
    pot23: PotentialSpec
    couplings: CouplingConfig

    def potential(self, pair: str) -> PotentialSpec:
        return {"12": self.pot12, "13": self.pot13, "23": self.pot23}[pair]

    def frame(self, pair: str) -> JacobiFrame:
        return make_jacobi_frame(self.masses, pair)

    def scaled_potential(self, pair: str) -> PotentialSpec:
        """Pair well as a function of the pair's scaled internal coordinate."""
        return self.potential(pair).dilated(self.frame(pair).alpha)

    def with_couplings(self, couplings: CouplingConfig) -> "ModelSpec":
        return ModelSpec(self.masses, self.pot12, self.pot13, self.pot23, couplings)

    def max_range(self) -> float:
        return max(self.pot12.range, self.pot13.range, self.pot23.range)


@dataclass(frozen=True)
class KernelConstants:
    c: float
    c_prime: float
    c_dprime: float
    c_tilde: float


# ---------------------------------------------------------------------------
# quadrature grids


def _gauss_legendre_panels(edges: Sequence[float], counts: Sequence[int]):
    nodes, weights, panels = [], [], []
    pos = 0
    for (a, b), n in zip(zip(edges[:-1], edges[1:]), counts):
        x, w = np.polynomial.legendre.leggauss(n)
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
        panels.append((a, b, pos, pos + n))
        pos += n
    return np.concatenate(nodes), np.concatenate(weights), tuple(panels)


def _split_counts(n: int, fractions: Sequence[float]) -> tuple[int, ...]:
    raw = [max(4, int(round(n * f))) for f in fractions]
    while sum(raw) > n and max(raw) > 4:
        raw[raw.index(max(raw))] -= 1
    while sum(raw) < n:
        raw[raw.index(min(raw))] += 1
    return tuple(raw)


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Composite Gauss-Legendre grids: radial on (0, r_max], momentum on (0, p_max].

    Panel edges sit at potential-range multiples (and at |p| = 1 on the
    momentum side) so that well discontinuities and the momentum cutoff are
    never straddled by a panel.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panels: tuple
    r_max: float
    momentum_nodes: np.ndarray
    momentum_weights: np.ndarray
    momentum_panels: tuple
    p_max: float
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0) or np.any(self.weights <= 0):
            raise ValueError("nodes must increase strictly and weights be positive")
        if abs(self.weights.sum() - self.r_max) > 1e-10 * self.r_max:
            raise ValueError("weights do not resolve (0, r_max]")

    @property
    def n(self) -> int:
        return self.nodes.size

    @classmethod
    def build(
        cls,
        r_max: float,
        n: int = 64,
        edges: Optional[Sequence[float]] = None,
        p_max: float = 4.0,
        n_momentum: int = 64,
        momentum_edges: Optional[Sequence[float]] = None,
    ) -> "Quadrature":
        if edges is None:
            unit = r_max / 12.0
            edges = [0.0, unit, 2 * unit, 4 * unit, 8 * unit, r_max]
        counts = _split_counts(n, _default_fractions(len(edges) - 1))
        nodes, weights, panels = _gauss_legendre_panels(edges, counts)
        if momentum_edges is None:
            momentum_edges = [0.0, 0.25, 1.0, 2.0, p_max]
        mcounts = _split_counts(n_momentum, _default_fractions(len(momentum_edges) - 1))
        mn, mw, mp = _gauss_legendre_panels(momentum_edges, mcounts)
        return cls(
            nodes=nodes,
            weights=weights,
            panels=panels,
            r_max=float(r_max),
            momentum_nodes=mn,
            momentum_weights=mw,
            momentum_panels=mp,
            p_max=float(p_max),
        )

    @classmethod
    def for_potential(cls, pot: PotentialSpec, n: int = 64, **kw) -> "Quadrature":
        return cls.build(r_max=12.0 * pot.range, n=n, **kw)

    def doubled(self) -> "Quadrature":
        edges = [self.panels[0][0]] + [p[1] for p in self.panels]
        counts = [2 * (hi - lo) for (_, _, lo, hi) in self.panels]
        nodes, weights, panels = _gauss_legendre_panels(edges, counts)
        medges = [self.momentum_panels[0][0]] + [p[1] for p in self.momentum_panels]
        mcounts = [2 * (hi - lo) for (_, _, lo, hi) in self.momentum_panels]
        mn, mw, mp = _gauss_legendre_panels(medges, mcounts)
        return Quadrature(
            nodes=nodes,
            weights=weights,
            panels=panels,
            r_max=self.r_max,
            momentum_nodes=mn,
            momentum_weights=mw,
            momentum_panels=mp,
            p_max=self.p_max,
        )

    def radial_integral(self, f: Callable) -> float:
        """4*pi * integral of f(r) r^2 dr over (0, r_max] -- a 3D volume integral."""
        return float(4.0 * np.pi * np.sum(self.weights * self.nodes**2 * f(self.nodes)))


def _default_fractions(n_panels: int) -> tuple[float, ...]:
    if n_panels == 1:
        return (1.0,)
    base = np.geomspace(2.0, 1.0, n_panels)
    return tuple(base / base.sum())


# ---------------------------------------------------------------------------
# kernel constants


def kernel_constants(
    pot12: PotentialSpec,
    pot23: PotentialSpec,
    frame: JacobiFrame,
    quad: Quadrature,
    tol: float = 1e-6,
) -> KernelConstants:
    """Volume/momentum constants of the pair kernels.

    c   : volume integral of the (12) well over the scaled internal coordinate,
    c'  : volume integral of exp(-2|x|)/|x|^2 (model independent),
    c'' : sup over the momentum grid of (t(p)+1)^2/|p|,
    c~  : Plancherel norm of the Fourier transform of sqrt(V23), folded with gamma.

    Raises QuadratureUnderresolvedError if doubling the grid moves c or c~ by
    more than tol relative.
    """
    from .faddeev import t_function  # deferred: faddeev imports model at top level

    def _c(q: Quadrature) -> float:
        return q.radial_integral(lambda r: pot12.value(frame.alpha * r))

    def _c_tilde(q: Quadrature) -> float:
        return q.radial_integral(pot23.value) / frame.gamma**3

    c, c2 = _c(quad), _c(quad.doubled())
    ct, ct2 = _c_tilde(quad), _c_tilde(quad.doubled())
    for a, b in ((c, c2), (ct, ct2)):
        if abs(a - b) > tol * max(abs(b), 1e-300):
            raise QuadratureUnderresolvedError(
                f"constant moved {abs(a - b):.3e} (> {tol:.1e} rel) on doubling"
            )

    cp_quad = Quadrature.build(r_max=24.0, n=64)
    c_prime = cp_quad.radial_integral(lambda r: np.exp(-2.0 * r) / r**2)

    p = quad.momentum_nodes
    c_dprime = float(np.max((t_function(p) + 1.0) ** 2 / p))

    return KernelConstants(c=c2, c_prime=c_prime, c_dprime=c_dprime, c_tilde=ct2)


# ---------------------------------------------------------------------------
# requirement validation


@dataclass(frozen=True)
class RequirementCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[RequirementCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def minimal_envelope_b1(pot: PotentialSpec, b2: float, r_max: Optional[float] = None) -> float:
    """Smallest b1 such that V(r) <= b1*exp(-b2*r) on a dense grid."""
    if b2 <= 0:
        raise ValueError("b2 must be positive")
    r_max = r_max if r_max is not None else 16.0 * pot.range
    r = np.linspace(0.0, r_max, 20001)
    return float(np.max(pot.value(r) * np.exp(b2 * r)))


def validate_requirements(
    model: ModelSpec, envelopes: tuple[float, float], quad: Optional[Quadrature] = None
) -> ValidationReport:
    """Data-checkable requirement report: sign, envelope, integrability, V23 != 0.

    Failures are report entries, never exceptions.
    """
    b1, b2 = envelopes
    if quad is None:
        quad = Quadrature.build(r_max=12.0 * model.max_range())
    checks: list[RequirementCheck] = []

    for pair in PAIRS:
        pot = model.potential(pair)
        ok = pot.is_nonnegative()
        checks.append(
            RequirementCheck(
                f"sign[{pair}]", ok, "V >= 0" if ok else "negative potential values"
            )
        )

    # exponential envelope on the scaled (12) coordinate
    pot12s = model.scaled_potential("12")
    need_b1 = minimal_envelope_b1(pot12s, b2)
    ok = need_b1 <= b1 * (1.0 + 1e-12)
    checks.append(
        RequirementCheck(
            "envelope[12]",
            ok,
            f"minimal b1 at b2={b2:g} is {need_b1:.6g} (given {b1:g})",
        )
    )

    for pair in PAIRS:
        pot = model.potential(pair)
        l1 = quad.radial_integral(pot.value)
        l2 = quad.radial_integral(lambda r: pot.value(r) ** 2)
        ok = math.isfinite(l1) and math.isfinite(l2)
        checks.append(
            RequirementCheck(
                f"integrable[{pair}]", ok, f"L1={l1:.6g}, L2^2={l2:.6g}"
            )
        )

    ok = not model.pot23.is_zero()
    checks.append(
        RequirementCheck("v23_nonzero", ok, "V23 != 0" if ok else "V23 vanishes identically")
    )

    return ValidationReport(checks=tuple(checks))
