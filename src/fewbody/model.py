"""Problem definitions: pair potentials, masses, the kinematic rotations between
pair frames, couplings, grids.

Units: hbar = 1 and every pair problem is expressed in mass-scaled Jacobi
coordinates, so the free operator is a bare Laplacian and all mass dependence
lives in the frame scales 1/sqrt(2 mu) of the pair and 1/sqrt(2 M) of the
spectator, and in potential arguments.  Potentials store the non-negative
magnitude V >= 0; Hamiltonians subtract coupling * V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

PAIRS = ("12", "13", "23")

# particle index layout per pair label: (i, j, spectator)
_PAIR_INDEX = {"12": (0, 1, 2), "13": (0, 2, 1), "23": (1, 2, 0)}

_POTENTIAL_KINDS = ("gaussian", "exponential", "square_well", "tabulated")


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
            if not radii[-1] > 0:
                raise ValueError("table must end at a positive radius")
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

    def volume(self) -> float:
        """Volume integral of V over R^3, in closed form."""
        if self.kind != "tabulated":
            shape = {"gaussian": math.pi**1.5, "exponential": 8.0 * math.pi,
                     "square_well": 4.0 * math.pi / 3.0}[self.kind]
            return shape * self.depth * self.range**3
        return 4.0 * math.pi * self._table_moments()[0]

    def bs_hs2(self) -> float:
        """Squared Hilbert-Schmidt norm of the unit-coupling, zero-energy s-wave
        Birman-Schwinger kernel sqrt(V(r)) min(r, s) sqrt(V(s)), in closed form:

            T2 = int int V(r) V(s) min(r, s)^2 dr ds = 2 int_0^inf V(s) W(s) ds,
            W(s) = int_0^s r^2 V(r) dr.

        A well V >= 0 binds nothing at coupling lam when lam^2 T2 < 1: the top
        Birman-Schwinger eigenvalue is at most lam sqrt(T2) (B. Simon, Trace
        Ideals and Their Applications, 2005).
        """
        if self.kind != "tabulated":
            shape = {"gaussian": math.pi / 8.0 - 0.25, "exponential": 0.5,
                     "square_well": 1.0 / 6.0}[self.kind]
            return shape * self.depth**2 * self.range**4
        return self._table_moments()[1]

    def _table_moments(self) -> tuple[float, float]:
        """(W(r_last), T2) of a tabulated well, exact per piece.

        The head below the first radius is constant.  On each linear segment
        Simpson's rule is exact for r^2 V(r), which gives W exactly, and V W is
        a degree-5 polynomial, on which 3-point Gauss-Legendre is exact.
        """
        def simpson(a, va, b, vb):  # int_a^b r^2 V(r) dr, V linear on [a, b]
            return (b - a) / 6.0 * (a * a * va + 0.5 * (a + b) ** 2 * (va + vb) + b * b * vb)

        x = math.sqrt(0.6)
        r0, v0 = self.table[0]
        w = v0 * r0**3 / 3.0
        t2 = v0 * v0 * r0**4 / 6.0
        for (a, va), (b, vb) in zip(self.table, self.table[1:]):
            mid, half, slope = 0.5 * (a + b), 0.5 * (b - a), (vb - va) / (b - a)
            for node, weight in ((-x, 5.0 / 9.0), (0.0, 8.0 / 9.0), (x, 5.0 / 9.0)):
                t = mid + half * node
                vt = va + slope * (t - a)
                t2 += 2.0 * half * weight * vt * (w + simpson(a, va, t, vt))
            w += simpson(a, va, b, vb)
        return w, t2

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
        # every pair's frame scales 1/sqrt(2 mu) and 1/sqrt(2 M) must be finite and nonzero
        for pair in PAIRS:
            if not all(m > 0.0 and math.isfinite(m) for m in (self.mu(pair), self.big_m(pair))):
                raise ValueError(f"reduced masses of pair {pair} must be finite and positive")

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


# ---------------------------------------------------------------------------
# kinematic rotations between pair frames


def _frame_matrix(masses: MassSet, pair: str) -> np.ndarray:
    """Rows of (x_pair, y_pair) in the basis (r2-r1, r3-r1)."""
    m1, m2, m3 = masses.masses
    mu = masses.mu(pair)
    bm = masses.big_m(pair)
    sx, sy = math.sqrt(2.0 * mu), math.sqrt(2.0 * bm)
    if pair == "12":
        return np.array([[sx, 0.0], [-sy * m2 / (m1 + m2), sy]])
    if pair == "13":
        return np.array([[0.0, sx], [sy, -sy * m3 / (m1 + m3)]])
    if pair == "23":
        return np.array([[-sx, sx], [-sy * m2 / (m2 + m3), -sy * m3 / (m2 + m3)]])
    raise ValueError(f"unknown pair {pair!r}")


def kinematic_rotation(masses: MassSet, row_pair: str, col_pair: str) -> np.ndarray:
    """2x2 orthogonal map taking row-frame (x, y) to col-frame (x, y)."""
    R = _frame_matrix(masses, col_pair) @ np.linalg.inv(_frame_matrix(masses, row_pair))
    if np.max(np.abs(R @ R.T - np.eye(2))) > 1e-12:
        raise AssertionError("kinematic rotation lost orthogonality")
    return R


def pair_separation_coeffs(masses: MassSet, pair: str):
    """(P, Q) with physical pair separation = P*x + Q*y in the (12)-frame coordinates."""
    inv = np.linalg.inv(_frame_matrix(masses, "12"))
    u0, v0 = inv[0], inv[1]  # rows: coefficients of (x, y) in r2-r1 and r3-r1
    sep = {"12": u0, "13": v0, "23": v0 - u0}[pair]
    return float(sep[0]), float(sep[1])


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

    def scaled_potential(self, pair: str) -> PotentialSpec:
        """Pair well as a function of the pair's scaled internal coordinate x = r sqrt(2 mu)."""
        return self.potential(pair).dilated(1.0 / math.sqrt(2.0 * self.masses.mu(pair)))

    def with_couplings(self, couplings: CouplingConfig) -> "ModelSpec":
        return ModelSpec(self.masses, self.pot12, self.pot13, self.pot23, couplings)

    def max_range(self) -> float:
        return max(self.pot12.range, self.pot13.range, self.pot23.range)

    def active_pairs(self) -> list[str]:
        """The pairs with a positive coupling and a nonzero well, in PAIRS order."""
        return [p for p in PAIRS if self.couplings.get(p) > 0 and not self.potential(p).is_zero()]


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
    """Composite Gauss-Legendre grid on the radial interval (0, r_max].

    Panel edges sit at potential-range multiples so that well discontinuities
    are never straddled by a panel.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panels: tuple
    r_max: float
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
    ) -> "Quadrature":
        if edges is None:
            unit = r_max / 12.0
            edges = [0.0, unit, 2 * unit, 4 * unit, 8 * unit, r_max]
        counts = _split_counts(n, _default_fractions(len(edges) - 1))
        nodes, weights, panels = _gauss_legendre_panels(edges, counts)
        return cls(nodes=nodes, weights=weights, panels=panels, r_max=float(r_max))

    @classmethod
    def for_potential(cls, pot: PotentialSpec, n: int = 64) -> "Quadrature":
        return cls.build(r_max=12.0 * pot.range, n=n)

    def radial_integral(self, f: Callable) -> float:
        """4*pi * integral of f(r) r^2 dr over (0, r_max] -- a 3D volume integral."""
        return float(4.0 * np.pi * np.sum(self.weights * self.nodes**2 * f(self.nodes)))


def _default_fractions(n_panels: int) -> tuple[float, ...]:
    if n_panels == 1:
        return (1.0,)
    base = np.geomspace(2.0, 1.0, n_panels)
    return tuple(base / base.sum())


# ---------------------------------------------------------------------------
# requirement validation


@dataclass(frozen=True)
class RequirementCheck:
    requirement: str
    passed: bool
    detail: str


def minimal_envelope_b1(pot: PotentialSpec, b2: float) -> float:
    """Smallest b1 such that V(r) <= b1*exp(-b2*r) on a dense grid to 16 ranges.

    Only points with V > 0 bound it, so a well with compact support never
    meets 0 * inf; a b1 beyond float64 reads inf.
    """
    if b2 <= 0:
        raise ValueError("b2 must be positive")
    r = np.linspace(0.0, 16.0 * pot.range, 20001)
    v = pot.value(r)
    pos = v > 0
    with np.errstate(over="ignore"):
        return float(np.max(v[pos] * np.exp(b2 * r[pos]), initial=0.0))


def validate_requirements(
    model: ModelSpec, envelopes: tuple[float, float]
) -> list[RequirementCheck]:
    """Data-checkable requirements: sign, envelope, integrability, V23 != 0.

    Failures are entries, never exceptions.  L1 is the closed-form well
    volume, L2^2 a quadrature on the well's own grid.
    """
    b1, b2 = envelopes
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
        l1 = pot.volume()
        l2 = Quadrature.for_potential(pot).radial_integral(lambda r: pot.value(r) ** 2)
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

    return checks
