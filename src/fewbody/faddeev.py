"""Three-body operator calculus in the s-wave-reduced mixed representation.

Each pair component lives on its own Jacobi frame as a function of
(x = pair radial coordinate, p = magnitude of the conjugate spectator
momentum), reduced so that the L2 norm is the plain double integral.  The
free resolvent is diagonal in p within a frame; coupling between pairs goes
through the orthogonal kinematic rotation of frames.

For an input pair (column frame, coordinates rotated as
x_col = a x_row + b y_row, y_col = c x_row + d y_row) the s-wave projected
matrix element of sqrt(V_row) (H0 + z^2)^-1 sqrt(V_col) collapses to a single
angular integral because the row resolvent acts on sin(nu r) eigenfunctions:

    T(r,p;s,q) = pq/(pi |b|^3) * int_-1^1 du sin(nu r) sin(m s) / (nu m D^2)

    nu^2 = (a^2 p^2 + q^2 - 2 d p q u)/b^2         (row-side wave number)
    m^2  = (a^2 q^2 + p^2 - 2 d p q u)/b^2         (column-side wave number)
    D^2  = (p^2 + q^2 - 2 d p q u)/b^2 + z^2       (shared denominator)

T is exactly symmetric under (r,p) <-> (s,q) together with row <-> col.

Within one operator (one z, one set of grid arguments) blocks are keyed by
what goes into them: a grid by the scaled well, a diagonal stack by the well
and its coupling, a cross block by both wells, both couplings, |a|, |b| and
the signed d of the rotation (only a^2, |b|^3 and d enter T).  Equal masses therefore build one grid, one
diagonal stack and one cross block per z.  A cross block whose two sides
carry the same nodes, well and coupling is stored exactly symmetric and
serves both orientations, so every (row, col) entry points at that buffer,
and each matvec applies every distinct matrix once, in one product over all
the components it multiplies.

At fixed z every block is linear in an overall coupling scale s (the
diagonal fibers carry lam, the cross blocks sqrt(lam_row lam_col)), so the
blocks are assembled once per z at the model's couplings, together with one
eigendecomposition D = U Lambda U^T per diagonal fiber.  The iteration map
(1 - s D)^-1 s B is similar to the symmetric C B C with
C = U diag(sqrt(s/(1 - s Lambda))) U^T (Birman-Schwinger symmetrization), so
faddeev_solve(op, scale=s) runs a symmetric Lanczos solve on it without
touching the assembled blocks.  The map has eigenvalue one exactly when 1/s
is an eigenvalue of the stacked D + B, the Gram form of the pair wells, so
bound_scale(op) is s_z = 1/mu_max(D + B) from one more Lanczos solve, with
s_z <= 1/Lambda_max of every pair by interlacing; threshold_scale
extrapolates s_z linearly to z = 0.  No search is run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.integrate import quad as adaptive_quad
import scipy.sparse.linalg

from .model import (
    MassSet,
    ModelSpec,
    PAIRS,
    PotentialSpec,
    Quadrature,
    _gauss_legendre_panels,
    kernel_constants,
)
from . import twobody


class PairThresholdError(RuntimeError):
    """A pair sits at or above its coupling threshold; the resolvent series diverges."""


class AngleQuadratureError(RuntimeError):
    """Doubling the angle rule moved a block norm beyond tolerance."""


def t_function(p):
    """Momentum cutoff profile: sqrt(p) - 1 inside the unit ball, zero outside."""
    p = np.asarray(p, dtype=float)
    return np.where(p <= 1.0, np.sqrt(p) - 1.0, 0.0)


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


def pair_separation_coeffs(masses: MassSet, pair: str, frame_pair: str = "12"):
    """(P, Q) with physical pair separation = P*x + Q*y in the frame_pair coordinates."""
    inv = np.linalg.inv(_frame_matrix(masses, frame_pair))
    u0, v0 = inv[0], inv[1]  # rows: coefficients of (x, y) in r2-r1 and r3-r1
    sep = {"12": u0, "13": v0, "23": v0 - u0}[pair]
    return float(sep[0]), float(sep[1])


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True, eq=False)
class MixedGrid:
    """Product grid for one pair: radial x on (0, r_max], momentum p on (0, p_max].

    Momentum panels refine geometrically toward p = 0 (scale set by z, where
    the small-momentum structure of the kernels lives) and carry an edge at
    |p| = 1 so the cutoff profile t(p) is never straddled.
    """

    x_quad: Quadrature
    p_nodes: np.ndarray
    p_weights: np.ndarray
    p_edges: tuple
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if 1.0 < self.p_nodes[-1] and 1.0 not in self.p_edges:
            raise ValueError("momentum panels must carry an edge at |p| = 1")

    @property
    def n_x(self) -> int:
        return self.x_quad.n

    @property
    def n_p(self) -> int:
        return self.p_nodes.size

    @property
    def dim(self) -> int:
        return self.n_x * self.n_p


def momentum_edges(z: float, p_max: float = 4.0) -> list[float]:
    edges = [0.0]
    t = max(z, 1e-6) / 3.0
    while t < 0.25:
        edges.append(t)
        t *= 4.0
    edges += [0.5, 1.0]
    if p_max > 2.0:
        edges.append(2.0)
    edges.append(p_max)
    return sorted(set(edges))


def build_mixed_grid(
    pot_scaled: PotentialSpec,
    z: float,
    n_x: int = 28,
    n_p_per_panel: int = 6,
    p_max: float = 4.0,
) -> MixedGrid:
    x_quad = Quadrature.for_potential(pot_scaled, n=n_x)
    edges = momentum_edges(z, p_max)
    counts = [n_p_per_panel] * (len(edges) - 1)
    pn, pw, _ = _gauss_legendre_panels(edges, counts)
    return MixedGrid(x_quad=x_quad, p_nodes=pn, p_weights=pw, p_edges=tuple(edges))


# ---------------------------------------------------------------------------
# block assembly


def assemble_diagonal_block(
    pot: PotentialSpec, coupling: float, z: float, grid: MixedGrid
) -> np.ndarray:
    """Per-momentum stack of 2-body kernels at k = sqrt(p^2 + z^2), shape (n_p, n_x, n_x)."""
    if z <= 0:
        raise ValueError("z must be positive")
    out = np.empty((grid.n_p, grid.n_x, grid.n_x))
    for i, p in enumerate(grid.p_nodes):
        k = math.sqrt(p * p + z * z)
        out[i] = twobody.assemble_bs(pot, coupling, k, grid.x_quad).matrix
    return out


def assemble_offdiagonal_block(
    masses: MassSet,
    row_pair: str,
    col_pair: str,
    pot_row: PotentialSpec,
    pot_col: PotentialSpec,
    coupling_row: float,
    coupling_col: float,
    z: float,
    grid_row: MixedGrid,
    grid_col: MixedGrid,
    n_angle: int = 32,
    check_angle_resolution: bool = False,
) -> np.ndarray:
    """Cross-frame coupling block, shape (n_p*n_x of row, n_p*n_x of col).

    pot_row / pot_col are the wells expressed in each pair's scaled internal
    coordinate; couplings enter symmetrically as sqrt(lam_row * lam_col).
    Entries carry the quadrature weights of both sides, so the stacked system
    acts on plain coefficient vectors.  On equal grid nodes one sin table
    serves both sides; with the same well and coupling too, the block is
    returned exactly symmetric.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    if row_pair == col_pair:
        raise ValueError("off-diagonal block needs distinct pairs")

    R = kinematic_rotation(masses, row_pair, col_pair)
    a, b, d = R[0, 0], R[0, 1], R[1, 1]
    # on equal nodes m(p, q, u) = nu(q, p, u): one sin table serves both sides
    mirrored = np.array_equal(grid_row.p_nodes, grid_col.p_nodes) and np.array_equal(
        grid_row.x_quad.nodes, grid_col.x_quad.nodes
    )

    def build(nu_angle: int) -> np.ndarray:
        u, wu = np.polynomial.legendre.leggauss(nu_angle)
        p = grid_row.p_nodes
        q = grid_col.p_nodes
        P = p[:, None, None]
        Q = q[None, :, None]
        U = u[None, None, :]
        nu2 = (a * a * P**2 + Q**2 - 2.0 * d * P * Q * U) / (b * b)
        D2 = (P**2 + Q**2 - 2.0 * d * P * Q * U) / (b * b) + z * z
        nu = np.sqrt(np.maximum(nu2, 0.0))
        r = grid_row.x_quad.nodes
        s = grid_col.x_quad.nodes
        # sin(nu r)/nu and sin(m s)/m, stable at vanishing wave numbers
        SR = r[None, None, None, :] * np.sinc(nu[..., None] * r[None, None, None, :] / np.pi)
        if mirrored:
            SC = SR.transpose(1, 0, 2, 3)
        else:
            m2 = (a * a * Q**2 + P**2 - 2.0 * d * P * Q * U) / (b * b)
            m = np.sqrt(np.maximum(m2, 0.0))
            SC = s[None, None, None, :] * np.sinc(m[..., None] * s[None, None, None, :] / np.pi)
        coef = (P * Q / (np.pi * abs(b) ** 3)) * wu[None, None, :] / D2
        T = np.einsum("pqur,pqus,pqu->prqs", SR, SC, coef, optimize=True)
        return T

    T = build(n_angle)
    if check_angle_resolution:
        T2 = build(2 * n_angle)
        scale = max(np.max(np.abs(T2)), 1e-300)
        if np.max(np.abs(T - T2)) / scale > 1e-4:
            raise AngleQuadratureError("angle rule under-resolves the rotation kernel")
        T = T2

    row_fold = np.sqrt(
        grid_row.p_weights[:, None]
        * grid_row.x_quad.weights[None, :]
        * coupling_row
        * pot_row.value(grid_row.x_quad.nodes)[None, :]
    )
    col_fold = np.sqrt(
        grid_col.p_weights[:, None]
        * grid_col.x_quad.weights[None, :]
        * coupling_col
        * pot_col.value(grid_col.x_quad.nodes)[None, :]
    )
    T *= row_fold[:, :, None, None]
    T *= col_fold[None, None, :, :]
    T = T.reshape(grid_row.dim, grid_col.dim)
    if mirrored and np.array_equal(row_fold, col_fold):
        # symmetric in exact arithmetic (same nodes, well and coupling on both
        # sides): store it exactly symmetric
        T = 0.5 * (T + T.T)
    return T


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Assembled coupled-pair system at spectral point z (energy -z^2).

    Diagonal entries are kept in their momentum-fibered form, each with its
    batched eigendecomposition (Lambda, U) of shapes (n_p, n_x) and
    (n_p, n_x, n_x); off-diagonal entries are dense cross-frame matrices.
    Couplings are folded in symmetrically (sqrt(lam_row * lam_col) on each
    block).  Pairs whose blocks have equal content share one buffer, and
    the work on a shared buffer is grouped once per operator.
    """

    z: float
    pairs: tuple[str, ...]
    grids: dict
    diagonal: dict  # pair -> (n_p, n_x, n_x)
    spectra: dict  # pair -> (Lambda, U) of the diagonal fibers
    offdiagonal: dict  # (row, col) -> matrix
    couplings: dict

    def dim(self) -> int:
        return sum(self.grids[p].dim for p in self.pairs)

    def slices(self) -> dict:
        """pair -> slice of its component in the stacked vector."""
        out, off = {}, 0
        for pair in self.pairs:
            out[pair] = slice(off, off + self.grids[pair].dim)
            off = out[pair].stop
        return out

    @cached_property
    def fiber_groups(self) -> tuple:
        """The pairs grouped by the diagonal stack they share, in pair order."""
        groups: dict = {}
        for pair in self.pairs:
            groups.setdefault(id(self.diagonal[pair]), []).append(pair)
        return tuple(tuple(g) for g in groups.values())

    @cached_property
    def exchange_groups(self) -> tuple:
        """(matrix, columns) per distinct cross matrix: the components it multiplies."""
        groups: dict = {}
        for (_, col), M in self.offdiagonal.items():
            cols = groups.setdefault(id(M), (M, []))[1]
            if col not in cols:
                cols.append(col)
        return tuple((M, tuple(cols)) for M, cols in groups.values())


def assemble_block_operator(
    model: ModelSpec,
    z: float,
    n_x: int = 28,
    n_p_per_panel: int = 6,
    p_max: float = 4.0,
    n_angle: int = 32,
) -> BlockOperator:
    """Build all active blocks of the coupled system for the given model.

    Each grid, diagonal stack (with its eigendecomposition) and cross block
    is built once per distinct content key and shared by every pair that
    has that key.
    """
    active = [
        pair
        for pair in PAIRS
        if model.couplings.get(pair) > 0 and not model.potential(pair).is_zero()
    ]
    built: dict = {}

    def shared(key, build):
        if key not in built:
            built[key] = build()
        return built[key]

    pots = {pair: model.scaled_potential(pair) for pair in active}
    lams = {pair: model.couplings.get(pair) for pair in active}
    grids, diagonal, spectra = {}, {}, {}
    for pair in active:
        grids[pair] = shared(
            ("grid", pots[pair]),
            lambda: build_mixed_grid(pots[pair], z, n_x, n_p_per_panel, p_max),
        )
        key = (pots[pair], lams[pair])
        diagonal[pair] = shared(
            ("diag",) + key,
            lambda: assemble_diagonal_block(pots[pair], lams[pair], z, grids[pair]),
        )
        spectra[pair] = shared(("eigh",) + key, lambda: np.linalg.eigh(diagonal[pair]))
    offdiag = {}
    for i, row in enumerate(active):
        for col in active[i + 1 :]:
            R = kinematic_rotation(model.masses, row, col)
            key = ("cross", pots[row], pots[col], lams[row], lams[col],
                   abs(R[0, 0]), abs(R[0, 1]), R[1, 1])
            B = shared(
                key,
                lambda: assemble_offdiagonal_block(
                    model.masses, row, col, pots[row], pots[col], lams[row], lams[col],
                    z, grids[row], grids[col], n_angle=n_angle,
                ),
            )
            offdiag[(row, col)] = B
            # equal wells and couplings leave B exactly symmetric; otherwise the
            # reverse orientation is one transposed view per distinct block
            offdiag[(col, row)] = (
                B if (pots[row], lams[row]) == (pots[col], lams[col])
                else shared(("transpose",) + key, lambda: B.T)
            )
    return BlockOperator(
        z=z,
        pairs=tuple(active),
        grids=grids,
        diagonal=diagonal,
        spectra=spectra,
        offdiagonal=offdiag,
        couplings=lams,
    )


# ---------------------------------------------------------------------------
# the coupled solve


@dataclass(frozen=True, eq=False)
class FaddeevSolution:
    spectral_radius: float
    components: dict
    residual: float
    z: float


def _split(op: BlockOperator, v: np.ndarray) -> dict:
    """The stacked vector v as its pair components (views)."""
    return {pair: v[sl] for pair, sl in op.slices().items()}


def _fibered(op: BlockOperator, mats: dict, v: np.ndarray) -> np.ndarray:
    """Per-fiber matrices mats[pair], shape (n_p, n_x, n_x), applied to the stacked v.

    mats shares a stack between the pairs of each op.fiber_groups entry; a
    shared stack is applied to all its pairs in one batched product.
    """
    out = np.empty_like(v)
    slices = op.slices()
    for group in op.fiber_groups:
        grid, M = op.grids[group[0]], mats[group[0]]
        x = [v[slices[p]].reshape(grid.n_p, grid.n_x) for p in group]
        if len(group) == 1:
            y = [np.einsum("pij,pj->pi", M, x[0])]
        else:
            y = np.moveaxis(M @ np.stack(x, axis=-1), -1, 0)
        for pair, y_pair in zip(group, y):
            out[slices[pair]] = y_pair.ravel()
    return out


def _exchange(op: BlockOperator, v: np.ndarray) -> np.ndarray:
    """sum_{col != row} B[row, col] v_col for every row of the stacked v.

    Each distinct matrix of op.exchange_groups is applied once, in one
    product over all the components it multiplies.
    """
    comp = _split(op, v)
    prod = {}
    for M, cols in op.exchange_groups:
        if len(cols) == 1:
            rows = [M @ comp[cols[0]]]
        else:
            rows = np.stack([comp[c] for c in cols]) @ M.T  # row k: M @ comp[cols[k]]
        prod.update(((id(M), c), y) for c, y in zip(cols, rows))
    out = np.zeros_like(v)
    for row, acc in _split(op, out).items():
        for col in op.pairs:
            if col != row:
                acc += prod[id(op.offdiagonal[(row, col)]), col]
    return out


# Lanczos subspace of the symmetric solves: the top level is well separated,
# so a small subspace restarts cheaply (Lehoucq, Sorensen & Yang, ARPACK
# Users' Guide, 1998).
_LANCZOS_NCV = 6


def _top_eigenpair(n: int, matvec, tol: float = 1e-10, maxiter: int = 2000):
    """(|eigenvalue|, unit eigenvector) of largest magnitude of a symmetric map on R^n.

    A symmetric Lanczos solve (eigsh) from the all-ones vector; if ARPACK
    does not converge, power iteration on the same map takes over and stops
    once the Rayleigh-quotient residual is below tol times the eigenvalue.
    """
    v0 = np.ones(n)
    lin = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            lin, k=1, which="LM", v0=v0, ncv=_LANCZOS_NCV, maxiter=maxiter, tol=tol
        )
        return float(abs(vals[0])), vecs[:, 0]
    except scipy.sparse.linalg.ArpackNoConvergence:
        vec = v0 / np.linalg.norm(v0)
        theta = 0.0
        for _ in range(maxiter):
            w = matvec(vec)
            theta = float(vec @ w)
            nrm = np.linalg.norm(w)
            if nrm == 0.0 or np.linalg.norm(w - theta * vec) <= tol * abs(theta):
                break
            vec = w / nrm
        return abs(theta), vec


def faddeev_solve(
    op: BlockOperator, tol: float = 1e-10, maxiter: int = 2000, scale: float = 1.0
) -> FaddeevSolution:
    """Principal eigenvalue of the component iteration map.

    The map sends the stacked components phi_row to
    R_row * sum_{col != row} s B[row, col] phi_col with
    R = (1 - s diagonal)^-1 applied fiber by fiber; spectral radius one
    signals a bound state at energy -z^2.  Every block is linear in the
    couplings, so s = scale solves the model with all couplings multiplied
    by s on the blocks assembled at the model's own couplings.

    The map is similar to the symmetric half-resolvent form C B C with
    C = U diag(sqrt(s/(1 - s Lambda))) U^T per fiber, from the stored
    eigendecomposition D = U Lambda U^T, so a symmetric Lanczos solve (eigsh,
    with power iteration as its fallback) finds the radius and phi = C y the
    component vector.  The residual is the defect of the un-split component
    identity in the original coordinates.
    """
    pairs = op.pairs
    for pair in pairs:
        top = scale * float(np.max(op.spectra[pair][0][:, -1]))
        if top >= 1.0 - 1e-12:
            raise PairThresholdError(
                f"pair {pair}: diagonal fiber eigenvalue {top:.6f} >= 1 at z={op.z}"
            )

    if len(pairs) < 2 or scale == 0.0:
        # fewer than two coupled pairs, or none at scale 0: the map is zero
        comp = {p: np.zeros(op.grids[p].dim) for p in pairs}
        return FaddeevSolution(0.0, comp, 0.0, op.z)

    half = {}
    for group in op.fiber_groups:
        vals, vecs = op.spectra[group[0]]
        c = np.sqrt(scale / (1.0 - scale * vals))
        half.update(dict.fromkeys(group, (vecs * c[:, None, :]) @ vecs.transpose(0, 2, 1)))

    radius, y = _top_eigenpair(
        op.dim(), lambda y: _fibered(op, half, _exchange(op, _fibered(op, half, y))),
        tol, maxiter,
    )
    vec = _fibered(op, half, y)
    vec /= np.linalg.norm(vec)
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec

    # defect of the un-split component identity at the returned eigenvalue:
    # radius*(1 - s diag) phi - s offdiag phi should vanish
    defect = vec - scale * _fibered(op, op.diagonal, vec)
    defect = radius * defect - scale * _exchange(op, vec)
    residual = float(np.linalg.norm(defect)) / max(np.linalg.norm(vec), 1e-300)

    return FaddeevSolution(
        spectral_radius=radius, components=_split(op, vec), residual=residual, z=op.z
    )


def spectral_radius(model: ModelSpec, z: float, **grid_kw) -> float:
    return faddeev_solve(assemble_block_operator(model, z, **grid_kw)).spectral_radius


def threshold_operators(model: ModelSpec, z_pair=(1e-2, 1e-3), **grid_kw) -> tuple:
    """One block operator per z of z_pair, assembled at the model's couplings.

    Every overall coupling scale of the model reuses them through
    faddeev_solve(..., scale=s).
    """
    return tuple(assemble_block_operator(model, z, **grid_kw) for z in z_pair)


def _to_zero(ops: Sequence[BlockOperator], values: Sequence[float]) -> float:
    """Linear-in-z extrapolation to z = 0 of values taken at the z of the two ops."""
    (z2, z3), (v2, v3) = (op.z for op in ops), values
    return float((z2 * v3 - z3 * v2) / (z2 - z3))


def extrapolated_radius(ops: Sequence[BlockOperator], scale: float = 1.0) -> float:
    """Linear-in-z extrapolation to z = 0 of the spectral radius at coupling scale s."""
    return _to_zero(ops, [faddeev_solve(op, scale=scale).spectral_radius for op in ops])


def radius_at_zero(model: ModelSpec, z_pair=(1e-2, 1e-3), **grid_kw) -> float:
    """Linear-in-z extrapolation of the spectral radius to the threshold point."""
    return extrapolated_radius(threshold_operators(model, z_pair, **grid_kw))


def bound_scale(op: BlockOperator) -> float:
    """Coupling scale s_z at which the coupled system has a level at -z^2.

    The iteration map has eigenvalue one exactly when 1/s is an eigenvalue
    of the stacked diagonal-plus-exchange operator D + B, which is positive
    semidefinite, so s_z = 1/mu_max(D + B) from one symmetric Lanczos solve.
    PairThresholdError when fewer than two pairs are coupled: nothing then
    binds the three bodies.
    """
    if len(op.pairs) < 2:
        raise PairThresholdError(
            f"{len(op.pairs)} coupled pair(s) at z={op.z}: no three-body level"
        )
    mu, _ = _top_eigenpair(op.dim(), lambda v: _fibered(op, op.diagonal, v) + _exchange(op, v))
    return 1.0 / mu


def threshold_scale(ops: Sequence[BlockOperator]) -> float:
    """Coupling scale of ops' model at which the three-body level reaches z = 0.

    bound_scale at each z of ops, extrapolated linearly to z = 0 like the
    radius: two eigensolves, no search.
    """
    return _to_zero(ops, [bound_scale(op) for op in ops])


def bs_threshold_coupling(model: ModelSpec, z_pair=(1e-2, 1e-3), **grid_kw) -> float:
    """Overall coupling scale at which the model's coupled system binds at z = 0."""
    return threshold_scale(threshold_operators(model, z_pair, **grid_kw))


# ---------------------------------------------------------------------------
# inequality suite


@dataclass(frozen=True)
class HsNormResult:
    hs_norm_sq: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.hs_norm_sq <= self.bound * (1.0 + 1e-12)


def hs_norm_K2(
    pot12: PotentialSpec,
    pot23: PotentialSpec,
    frame,
    z: float,
    quad: Quadrature,
) -> HsNormResult:
    """Hilbert-Schmidt norm^2 of the singular part of the rotation coupling.

    The squared kernel factorizes into the pair-volume constants times a
    momentum integral over the unit ball; the closed bound replaces that
    integral by its p^-2 majorant.
    """
    if not 0 < z:
        raise ValueError("z must be positive")
    kc = kernel_constants(pot12, pot23, frame, quad)
    # substitute p = t^2: the sqrt(p) cutoff profile becomes smooth in t
    t, wt = np.polynomial.legendre.leggauss(80)
    t = 0.5 * (t + 1.0)
    wt = 0.5 * wt
    bracket = 1.0 / (z + 1.0 + t_function(t**2)) - 1.0 / (z + 1.0)
    integrand = 4.0 * np.pi * t**4 * bracket**2 / np.sqrt(t**4 + z * z) * 2.0 * t
    ip = float(np.sum(wt * integrand))
    hs = kc.c * kc.c_prime * kc.c_tilde * ip / (2.0**7 * np.pi**5)
    bound = kc.c * kc.c_prime * kc.c_tilde / (2.0**5 * np.pi**4)
    return HsNormResult(hs_norm_sq=hs, bound=bound)


@dataclass(frozen=True)
class SubthresholdRow:
    z: float
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class SubthresholdReport:
    precondition_met: bool
    delta: float
    rows: tuple[SubthresholdRow, ...]

    @property
    def passed(self) -> bool:
        return self.precondition_met and all(r.passed for r in self.rows)


def subthreshold_bound_check(
    pot: PotentialSpec,
    coupling: float,
    epsilon: float,
    z_list: Sequence[float],
    quad: Quadrature,
    tol: float = 1e-10,
    strict: bool = False,
) -> SubthresholdReport:
    """coupling * |pair resolvent-sandwich norm| <= 1 - eps/(coupling+eps) per z.

    The 3-body diagonal block norm is the small-momentum fiber, i.e. the
    2-body norm at k = z.  With a resonant or bound pair the margin
    precondition fails and rows report the saturation instead of passing.
    """
    cls = twobody.classify_pair(pot, coupling, quad, epsilon)
    pre = cls.category == twobody.PairClass.UNBOUND_WITH_MARGIN or coupling == 0.0
    if strict and not pre:
        raise PairThresholdError(f"pair classified {cls.category.value}, margin precondition fails")
    delta = epsilon / (coupling + epsilon) if coupling + epsilon > 0 else 0.0
    rows = []
    for z in z_list:
        lhs = coupling * twobody.mu_max(pot, 1.0, z, quad) if coupling > 0 else 0.0
        rhs = 1.0 - delta
        rows.append(SubthresholdRow(z=float(z), lhs=lhs, rhs=rhs, passed=lhs <= rhs + tol))
    return SubthresholdReport(precondition_met=pre, delta=delta, rows=tuple(rows))


@dataclass(frozen=True)
class ContinuityRow:
    z1: float
    z2: float
    norm_diff: float
    bound: float
    passed: bool


def continuity_modulus_check(
    model: ModelSpec,
    row_pair: str,
    col_pair: str,
    z_pairs: Sequence[tuple[float, float]],
    quad: Quadrature,
    slack: float = 1e-6,
    **grid_kw,
) -> list[ContinuityRow]:
    """Norm continuity in z of the coupling-free block against the volume-constant bound."""
    frame_row = model.frame(row_pair)
    c_row = quad.radial_integral(
        lambda r: model.potential(row_pair).value(frame_row.alpha * r)
    )
    frame_col = model.frame(col_pair)
    c_col = quad.radial_integral(
        lambda r: model.potential(col_pair).value(frame_col.alpha * r)
    )
    ell = math.sqrt(c_row * c_col) / (4.0 * np.pi)

    rows = []
    for z1, z2 in z_pairs:
        if row_pair == col_pair:
            # the fiber difference norm is bounded by the difference at the
            # smallest wave number; evaluate the matrix difference directly
            m1 = twobody.assemble_bs(model.scaled_potential(row_pair), 1.0, z1, quad).matrix
            m2 = twobody.assemble_bs(model.scaled_potential(row_pair), 1.0, z2, quad).matrix
            norm_diff = float(np.max(np.abs(np.linalg.eigvalsh(m1 - m2))))
        else:
            g1 = build_mixed_grid(model.scaled_potential(row_pair), min(z1, z2), **grid_kw)
            g2 = build_mixed_grid(model.scaled_potential(col_pair), min(z1, z2), **grid_kw)
            kw = dict(
                pot_row=model.scaled_potential(row_pair),
                pot_col=model.scaled_potential(col_pair),
                coupling_row=1.0,
                coupling_col=1.0,
                grid_row=g1,
                grid_col=g2,
            )
            b1 = assemble_offdiagonal_block(model.masses, row_pair, col_pair, z=z1, **kw)
            b2 = assemble_offdiagonal_block(model.masses, row_pair, col_pair, z=z2, **kw)
            norm_diff = float(np.linalg.norm(b1 - b2, 2))
        bound = ell * math.sqrt(abs(z2 * z2 - z1 * z1)) + slack
        rows.append(
            ContinuityRow(
                z1=float(z1),
                z2=float(z2),
                norm_diff=norm_diff,
                bound=bound,
                passed=norm_diff <= bound,
            )
        )
    return rows


@dataclass(frozen=True)
class Green6Row:
    xi: float
    value: float
    bound: float
    passed: bool


def green6_bound_check(xi_list: Sequence[float]) -> list[Green6Row]:
    """Pointwise heat-kernel bound on the 6D free resolvent kernel at energy -1."""
    rows = []
    for xi in xi_list:
        if not xi > 0:
            raise ValueError("xi must be positive")

        def integrand(t):
            return t**-3 * math.exp(-t * xi * xi - 0.25 / t)

        t_peak = 0.5 / xi
        val, err = adaptive_quad(integrand, 0.0, np.inf, points=None, limit=400)
        if not math.isfinite(val) or err > 1e-10 * max(val, 1.0):
            # fall back to a split at the saddle
            v1, _ = adaptive_quad(integrand, 0.0, t_peak, limit=400)
            v2, _ = adaptive_quad(integrand, t_peak, np.inf, limit=400)
            val = v1 + v2
        g0 = val / ((4.0 * np.pi) ** 3 * xi**4)
        bound = 4.0 / (9.0 * np.pi * xi**4) * math.exp(-xi / 2.0)
        rows.append(Green6Row(xi=float(xi), value=g0, bound=bound, passed=g0 <= bound))
    return rows


@dataclass(frozen=True)
class LogDivergenceResult:
    z_values: np.ndarray
    j_values: np.ndarray
    lower_bounds: np.ndarray
    slope: float
    intercept: float
    r_squared: float

    @property
    def bound_holds(self) -> bool:
        return bool(np.all(self.j_values >= self.lower_bounds * (1.0 - 1e-9)))


def j_epsilon_divergence(
    g,
    eps0: float,
    z_list: Sequence[float],
    r_max: float = 40.0,
    n_r: int = 400,
) -> LogDivergenceResult:
    """Small-momentum weighted mass of a non-negative radial g against (p^2+z^2)^{-3/2}.

    Returns the sampled integral J(z), its proven lower bound per z, and the
    linear fit of J against log(1/z) (the divergence is logarithmic).
    """
    edges = [0.0, 0.25 * r_max, 0.5 * r_max, r_max]
    r, wr, _ = _gauss_legendre_panels(edges, [n_r // 2, n_r // 4, n_r // 4])
    gr = np.asarray(g(r), dtype=float)
    if np.any(gr < 0):
        raise ValueError("g must be non-negative")
    norm1 = float(4.0 * np.pi * np.sum(wr * r * r * gr))
    if norm1 <= 0.0:
        zs = np.asarray(z_list, float)
        zero = np.zeros_like(zs)
        return LogDivergenceResult(zs, zero, zero, 0.0, 0.0, 1.0)

    def ghat(p):
        # unnormalized radial transform: int d3y e^{ip.y} g = 4pi/p int g(y) y sin(py) dy
        p = np.atleast_1d(p)
        return 4.0 * np.pi * np.sum(
            wr[None, :] * r[None, :] * gr[None, :] * np.sinc(p[:, None] * r[None, :] / np.pi) * r[None, :],
            axis=1,
        )

    # quartile radius: int_{|y|>rq} g = ||g||_1 / 4
    cum = 4.0 * np.pi * np.cumsum((wr * r * r * gr)[::-1])[::-1]
    idx = int(np.searchsorted(-cum, -0.25 * norm1))
    rq = float(r[min(idx, r.size - 1)])
    eps_low = min(eps0, np.pi / (3.0 * rq))

    zs = np.asarray(sorted(z_list, reverse=True), dtype=float)
    js = np.empty_like(zs)
    lbs = np.empty_like(zs)
    for i, z in enumerate(zs):
        pedges = [0.0] + [z * 4.0**j for j in range(0, 12) if z * 4.0**j < eps0] + [eps0]
        pedges = sorted(set(pedges))
        pn, pw, _ = _gauss_legendre_panels(pedges, [12] * (len(pedges) - 1))
        gh = ghat(pn)
        js[i] = float(
            4.0 * np.pi * np.sum(pw * pn * pn * gh * gh / (pn * pn + z * z) ** 1.5)
        )
        ball = math.asinh(eps_low / z) - eps_low / math.sqrt(eps_low**2 + z * z)
        lbs[i] = norm1**2 / 64.0 * 4.0 * np.pi * ball

    x = np.log(1.0 / zs)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, js, rcond=None)
    ss_tot = float(np.sum((js - js.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((js - A @ coef) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LogDivergenceResult(
        z_values=zs,
        j_values=js,
        lower_bounds=lbs,
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=float(r2),
    )
