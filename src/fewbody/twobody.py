"""Two-particle spectral engine.

Everything is s-wave reduced: on u = r*psi the resolvent kernel of
(-d^2/dr^2 + k^2) with a Dirichlet wall at r = 0 is

    g_k(r, r') = [exp(-k|r-r'|) - exp(-k(r+r'))] / (2k),   g_0(r, r') = min(r, r').

The kernel has a derivative kink across r = r', so plain Nystrom stalls at
O(N^-2).  We therefore correct each row's self-panel with exact product
weights (the kink is split out and integrated against the panel's Lagrange
basis by sub-quadrature), after which eigenvalues converge to machine
precision on modest grids.  The sub-quadrature points, weights and Lagrange
values do not depend on k: they are precomputed once per grid, and each k
applies them in one batched product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .model import PotentialSpec, Quadrature, ZeroPotentialError

K_ZERO_CUTOFF = 1e-12
# Top-gap below which a principal eigenpair is flagged degenerate.
_DEGENERACY_TOL = 1e-10
# Distance of mu(0) from one beyond which a coupling is not at its threshold.
_THRESHOLD_TOL = 1e-8
# Least distance of the second eigenvalue below one in the W probe.
_GAP_TOL = 1e-3
# DOP853 tolerances of the radial shooting integration, and Brent's absolute
# tolerance on the shooting ground energy.
_SHOOTING_RTOL = 1e-11
_SHOOTING_ATOL = 1e-14
_SHOOTING_XTOL = 1e-11


class NotAtThresholdError(ValueError):
    """Resonance data requested away from the coupling-constant threshold."""


class ResonanceWindowError(ValueError):
    """k lies outside the window where the top eigenvalue stays isolated."""


class IntegrationUnderresolvedError(RuntimeError):
    """Radial shooting failed to reach the requested accuracy."""


def reduced_greens(k: float, r, rp):
    """s-wave reduced resolvent kernel; exact r_< form below the k cutoff."""
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    if k < K_ZERO_CUTOFF:
        return np.minimum(r, rp)
    return (np.exp(-k * np.abs(r - rp)) - np.exp(-k * (r + rp))) / (2.0 * k)


# ---------------------------------------------------------------------------
# product-corrected kernel assembly


def _bary_weights(x: np.ndarray, width: float) -> np.ndarray:
    """Barycentric weights of a panel's nodes x, up to a common factor.

    The node differences are scaled by 2^-floor(log2(width)) before they are
    multiplied, so their product neither under- nor overflows; a power of two
    scales exactly, and the common factor cancels in _lagrange_at's
    normalization (Berrut & Trefethen, SIAM Review 46, 2004).
    """
    scale = math.ldexp(1.0, 1 - math.frexp(width)[1])
    w = np.empty(x.size)
    for j in range(x.size):
        w[j] = 1.0 / np.prod((x[j] - np.delete(x, j)) * scale)
    return w


def _lagrange_at(nodes: np.ndarray, bw: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Values of all Lagrange basis polynomials at points t, shape (t, nodes)."""
    d = t[:, None] - nodes[None, :]
    hit = np.isclose(d, 0.0, atol=0.0)
    d[hit] = 1.0
    c = bw[None, :] / d
    out = c / c.sum(axis=1)[:, None]
    rows = np.any(hit, axis=1)
    out[rows] = hit[rows].astype(float)
    return out


@dataclass(frozen=True, eq=False)
class _ProductCorrection:
    """k-independent part of the self-panel product weights of one grid.

    Row rows[i] integrates g_k(r_i, t) against the Lagrange basis of its own
    panel: sub-quadrature points t split at r_i, their weights, and the basis
    values at t, zero-padded to the widest panel.  The valid (unpadded)
    entries of the result land at omega[target].
    """

    rows: np.ndarray  # (m,) corrected row indices
    points: np.ndarray  # (m, 2q) sub-quadrature points, q = max(24, width) per half
    weights: np.ndarray  # (m, 2q)
    lagrange: np.ndarray  # (m, 2q, width)
    valid: np.ndarray  # (m, width) mask of the unpadded entries
    target: tuple  # omega indices of the valid entries, row-major


def _product_correction(quad: Quadrature) -> _ProductCorrection:
    cached = quad._cache.get("product_correction")
    if cached is not None:
        return cached
    r = quad.nodes
    width = max(hi - lo for _, _, lo, hi in quad.panels)
    # a half-panel rule needs as many points as the Lagrange basis has degrees
    xs, ws = np.polynomial.legendre.leggauss(max(24, width))
    rows, points, weights, lagrange, sizes, starts = [], [], [], [], [], []
    for a, b, lo, hi in quad.panels:
        nodes = r[lo:hi]
        bw = _bary_weights(nodes, b - a)
        for i in np.flatnonzero((a < r) & (r < b)):
            halves = ((a, r[i]), (r[i], b))
            t = np.concatenate([0.5 * (bb - aa) * xs + 0.5 * (aa + bb) for aa, bb in halves])
            lag = np.zeros((t.size, width))
            lag[:, : hi - lo] = _lagrange_at(nodes, bw, t)
            rows.append(i)
            points.append(t)
            weights.append(np.concatenate([0.5 * (bb - aa) * ws for aa, bb in halves]))
            lagrange.append(lag)
            sizes.append(hi - lo)
            starts.append(lo)
    rows = np.array(rows)
    offsets = np.arange(width)[None, :]
    valid = offsets < np.array(sizes)[:, None]
    cols = np.array(starts)[:, None] + offsets
    corr = _ProductCorrection(
        rows=rows,
        points=np.array(points),
        weights=np.array(weights),
        lagrange=np.array(lagrange),
        valid=valid,
        target=(np.broadcast_to(rows[:, None], valid.shape)[valid], cols[valid]),
    )
    quad._cache["product_correction"] = corr
    return corr


def greens_matrix(k: float, quad: Quadrature) -> np.ndarray:
    """Symmetric kernel-value matrix G with the diagonal kink product-corrected.

    sum_j w_j G[i, j] f(r_j) ~ integral g_k(r_i, r') f(r') dr' to spectral
    accuracy for f smooth on each panel.  The k-independent sub-quadrature
    and Lagrange values of the correction are built once per grid; each k
    applies them in one batched product.  Cached per (k, grid).
    """
    key = ("G", float(k))
    cached = quad._cache.get(key)
    if cached is not None:
        return cached

    r, w = quad.nodes, quad.weights
    omega = reduced_greens(k, r[:, None], r[None, :]) * w[None, :]
    corr = _product_correction(quad)
    g = reduced_greens(k, r[corr.rows, None], corr.points) * corr.weights
    omega[corr.target] = np.einsum("it,itj->ij", g, corr.lagrange)[corr.valid]
    G = omega / w[None, :]
    G = 0.5 * (G + G.T)
    # the true kernel is pointwise non-negative; interpolation overshoot can
    # leave ~1e-8 negatives in the deep-decay tail of a wide panel
    np.clip(G, 0.0, None, out=G)
    quad._cache[key] = G
    return G


@dataclass(frozen=True, eq=False)
class BSOperator:
    """Discretized s-wave Birman-Schwinger operator at spectral point k."""

    k: float
    matrix: np.ndarray

    def __post_init__(self):
        asym = np.max(np.abs(self.matrix - self.matrix.T))
        if asym > 1e-12:
            raise ValueError(f"matrix asymmetry {asym:.3e} exceeds 1e-12")


def assemble_bs(
    pot: PotentialSpec, coupling: float, k: float, quad: Quadrature
) -> BSOperator:
    """sqrt(coupling*V) (-d2/dr2 + k^2)^-1 sqrt(coupling*V), weight-symmetrized."""
    if k < 0 or coupling < 0:
        raise ValueError("k and coupling must be >= 0")
    v = coupling * pot.value(quad.nodes)
    sq = np.sqrt(quad.weights * v)
    M = np.outer(sq, sq) * greens_matrix(k, quad)
    return BSOperator(k=float(k), matrix=M)


@dataclass(frozen=True, eq=False)
class EigenPair:
    mu: float
    phi: np.ndarray
    gap: float
    degenerate: bool
    residual: float


def principal_eigenpair(op: BSOperator) -> EigenPair:
    """Largest eigenvalue with its Perron (sign-fixed, non-negative) eigenvector."""
    vals, vecs = np.linalg.eigh(op.matrix)
    mu = float(vals[-1])
    phi = vecs[:, -1]
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    gap = float(vals[-1] - vals[-2]) if vals.size > 1 else 0.0
    residual = float(np.linalg.norm(op.matrix @ phi - mu * phi))
    return EigenPair(
        mu=mu, phi=phi, gap=gap, degenerate=gap < _DEGENERACY_TOL, residual=residual
    )


def mu_max(pot: PotentialSpec, coupling: float, k: float, quad: Quadrature) -> float:
    return principal_eigenpair(assemble_bs(pot, coupling, k, quad)).mu


def critical_coupling(pot: PotentialSpec, quad: Quadrature) -> float:
    """Coupling at which the k = 0 principal eigenvalue reaches one.

    By linearity mu(lam, 0) = lam * mu(1, 0), so the root of mu - 1 is exact.
    """
    if pot.is_zero():
        raise ZeroPotentialError("zero potential has no coupling threshold")
    mu1 = mu_max(pot, 1.0, 0.0, quad)
    if mu1 <= 0:
        raise ZeroPotentialError("potential has vanishing volume on the grid")
    return 1.0 / mu1


@dataclass(frozen=True, eq=False)
class ResonanceData:
    """Zero-energy-resonance data of one pair at its coupling threshold."""

    lambda_star: float
    phi0: np.ndarray
    a_coefficient: float

    def __post_init__(self):
        if abs(np.linalg.norm(self.phi0) - 1.0) > 1e-10:
            raise ValueError("phi0 must be unit norm")
        if np.min(self.phi0) < -1e-12:
            raise ValueError("phi0 must be entrywise non-negative")
        if not self.a_coefficient > 0:
            raise ValueError("a coefficient must be positive")


def resonance_coefficient(
    pot: PotentialSpec,
    lambda_star: float,
    phi0: np.ndarray,
    quad: Quadrature,
) -> float:
    """Slope coefficient a = (phi0, sqrt(lam* V))^2 / (4 pi) in 3D normalization.

    phi0 is the grid eigenvector of the weight-symmetrized kernel (unit l2
    norm == unit L2(R^3) norm of the radial eigenfunction); mapping the 3D
    inner product through the s-wave reduction cancels the 4 pi.
    """
    mu = mu_max(pot, lambda_star, 0.0, quad)
    if abs(mu - 1.0) > _THRESHOLD_TOL:
        raise NotAtThresholdError(f"mu(0) = {mu} at coupling {lambda_star}")
    v = lambda_star * pot.value(quad.nodes)
    a = float(np.sum(np.sqrt(quad.weights * v) * phi0 * quad.nodes) ** 2)
    if a <= 0:
        raise ZeroPotentialError("resonance coefficient vanished")
    return a


def resonance_data(pot: PotentialSpec, quad: Quadrature) -> ResonanceData:
    lam = critical_coupling(pot, quad)
    pair = principal_eigenpair(assemble_bs(pot, lam, 0.0, quad))
    phi0 = np.clip(pair.phi, 0.0, None)
    phi0 = phi0 / np.linalg.norm(phi0)
    a = resonance_coefficient(pot, lam, phi0, quad)
    return ResonanceData(lambda_star=lam, phi0=phi0, a_coefficient=a)


@dataclass(frozen=True)
class WProbeRow:
    k: float
    w_norm: float
    akw: float
    z_norm: float


def w_decomposition_probe(
    pot: PotentialSpec,
    res: ResonanceData,
    k_list: Sequence[float],
    quad: Quadrature,
) -> list[WProbeRow]:
    """Split (1 - L(k))^-1 into the rank-one 1/(a k) singularity plus a remainder.

    Reported per k: the resolvent norm, the compensated product a*k*norm
    (which must hover near 1), and the spectral norm of the remainder
    Z(k) = (1 - L(k))^-1 - P0/(a k).
    """
    P0 = np.outer(res.phi0, res.phi0)
    a = res.a_coefficient
    rows = []
    for k in k_list:
        if not k > 0:
            raise ValueError("probe needs k > 0")
        op = assemble_bs(pot, res.lambda_star, k, quad)
        vals, vecs = np.linalg.eigh(op.matrix)
        mu1, mu2 = vals[-1], vals[-2]
        if 1.0 - mu2 < _GAP_TOL:
            raise ResonanceWindowError(
                f"second eigenvalue {mu2} within {_GAP_TOL} of 1 at k={k}"
            )
        w_norm = 1.0 / (1.0 - mu1)
        W = (vecs / (1.0 - vals)) @ vecs.T
        Z = W - P0 / (a * k)
        z_norm = float(np.max(np.abs(np.linalg.eigvalsh(Z))))
        rows.append(WProbeRow(k=float(k), w_norm=float(w_norm), akw=float(a * k * w_norm), z_norm=z_norm))
    return rows


# ---------------------------------------------------------------------------
# radial shooting oracle


def _segments(pot: PotentialSpec, r_max: float) -> list[float]:
    """Integration breakpoints at potential kinks."""
    pts = {0.0, r_max}
    if pot.kind == "square_well" and pot.range < r_max:
        pts.add(pot.range)
    if pot.kind == "tabulated":
        pts.update(r for r, _ in pot.table if 0.0 < r < r_max)
    return sorted(pts)


def _integrate_radial(pot: PotentialSpec, coupling: float, energy: float, r_max: float):
    """Outward solution of -u'' - coupling*V(r) u = E u with u(0)=0, u'(0)=1.

    Returns (u(r_max), u'(r_max), node_count).  Piecewise integration keeps
    the RHS smooth across well edges.
    """
    from scipy.integrate import solve_ivp  # deferred: it loads scipy's ODE and sparse stacks

    def rhs(r, y):
        return (y[1], -(energy + coupling * float(pot.value(r))) * y[0])

    y = np.array([0.0, 1.0])
    nodes = 0
    segs = _segments(pot, r_max)
    for a, b in zip(segs[:-1], segs[1:]):
        a_in = max(a, 1e-14)
        sol = solve_ivp(
            rhs, (a_in, b), y, method="DOP853", rtol=_SHOOTING_RTOL, atol=_SHOOTING_ATOL,
            dense_output=True,
        )
        if not sol.success:
            raise IntegrationUnderresolvedError(sol.message)
        t = np.linspace(a_in, b, 201)
        u = sol.sol(t)[0]
        s = np.sign(u)
        nodes += int(np.sum((s[:-1] * s[1:] < 0)))
        y = sol.y[:, -1]
    return y[0], y[1], nodes


def _node_count(pot, coupling, energy, r_max) -> int:
    u, up, nodes = _integrate_radial(pot, coupling, energy, r_max)
    kappa = math.sqrt(max(-energy, 0.0))
    if u * (up + kappa * u) < 0:
        nodes += 1  # growing-exponential amplitude of the other sign: crossing beyond r_max
    return nodes


def _auto_r_max(pot: PotentialSpec, coupling: float, abs_energy: float) -> float:
    r = 12.0 * pot.range
    floor = max(abs_energy, 1e-12) * 1e-4
    while coupling * float(pot.value(r)) > floor and r < 400.0 * pot.range:
        r *= 1.5
    return r


@functools.lru_cache(maxsize=4096)
def shooting_ground_energy(pot: PotentialSpec, coupling: float) -> Optional[float]:
    """Ground-state energy by outward shooting; None when no bound state exists.

    Node counting brackets the level, then the exterior log-derivative match
    u'(R) + k u(R) = 0 is refined by Brent's method.  Memoized: coupling
    scans revisit unchanged pairs constantly.
    """
    from scipy.optimize import brentq

    if coupling <= 0 or pot.is_zero():
        return None
    r_max = _auto_r_max(pot, coupling, 0.0)
    if _node_count(pot, coupling, 0.0, r_max) < 1:
        return None

    vmax = float(np.max(pot.value(np.linspace(0.0, r_max, 4001))))
    e_lo = -coupling * vmax * (1.0 + 1e-9) - 1e-9
    e_hi = -1e-13
    # bisect on node count to isolate the lowest level
    for _ in range(200):
        mid = 0.5 * (e_lo + e_hi)
        if _node_count(pot, coupling, mid, r_max) >= 1:
            e_hi = mid
        else:
            e_lo = mid
        if e_hi - e_lo < max(1e-3 * abs(e_hi), 1e-12):
            break

    r_match = _auto_r_max(pot, coupling, abs(e_hi))

    def match(e):
        u, up, _ = _integrate_radial(pot, coupling, e, r_match)
        return up + math.sqrt(-e) * u

    lo, hi = e_lo, e_hi
    flo, fhi = match(lo), match(hi)
    if flo * fhi > 0:  # widen once; the node bracket can sit on one side
        lo, hi = e_lo * 1.5, min(e_hi * 0.5, -1e-14)
        flo, fhi = match(lo), match(hi)
        if flo * fhi > 0:
            raise IntegrationUnderresolvedError("log-derivative match lost the bracket")
    e0 = brentq(match, lo, hi, xtol=_SHOOTING_XTOL, rtol=1e-15)
    return float(e0)


def shooting_critical_coupling(pot: PotentialSpec, tol: float = 1e-12) -> float:
    """Independent threshold oracle: the least coupling where the zero-energy solution flattens.

    The E = 0 node count is the number of levels, so couplings where it goes
    from 0 to 1 bracket the first threshold alone; there the slope u'(r_max)
    changes sign once.  The solution is integrated out to where the well's
    tail is negligible at the bracket's top coupling.
    """
    from scipy.optimize import brentq

    if pot.is_zero():
        raise ZeroPotentialError("zero potential has no coupling threshold")

    def nodes(lam):
        return _node_count(pot, lam, 0.0, r_max)

    lo, hi = 0.0, 1.0
    r_max = _auto_r_max(pot, hi, 0.0)
    while nodes(hi) < 1:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise IntegrationUnderresolvedError("no threshold below coupling 1e6")
        r_max = _auto_r_max(pot, hi, 0.0)
    while nodes(hi) > 1:  # bisect on the node count down to the first threshold
        mid = 0.5 * (lo + hi)
        if nodes(mid) == 0:
            lo = mid
        else:
            hi = mid

    def slope(lam):
        _, up, _ = _integrate_radial(pot, lam, 0.0, r_max)
        return up

    return float(brentq(slope, lo, hi, xtol=1e-300, rtol=max(tol, 1e-15)))


class PairClass(Enum):
    UNBOUND_WITH_MARGIN = "unbound_with_margin"
    UNBOUND_NO_MARGIN = "unbound_no_margin"
    RESONANT = "resonant"
    BOUND = "bound"


@dataclass(frozen=True)
class PairClassification:
    category: PairClass
    mu1: float
    ground_energy: Optional[float]


def classify_pair(
    pot: PotentialSpec,
    coupling: float,
    quad: Quadrature,
    margin_epsilon: float,
    resonance_tol: float = 1e-4,
) -> PairClassification:
    """Classify a pair by its position relative to the coupling threshold."""
    if pot.is_zero() or coupling == 0.0:
        return PairClassification(PairClass.UNBOUND_WITH_MARGIN, 0.0, None)
    mu1 = mu_max(pot, 1.0, 0.0, quad)
    x = coupling * mu1
    if abs(x - 1.0) <= resonance_tol:
        return PairClassification(PairClass.RESONANT, mu1, None)
    if x > 1.0:
        e0 = shooting_ground_energy(pot, coupling)
        if e0 is None:
            raise RuntimeError("eigenvalue above threshold but shooting found no level")
        return PairClassification(PairClass.BOUND, mu1, e0)
    if (coupling + margin_epsilon) * mu1 < 1.0:
        return PairClassification(PairClass.UNBOUND_WITH_MARGIN, mu1, None)
    return PairClassification(PairClass.UNBOUND_NO_MARGIN, mu1, None)
