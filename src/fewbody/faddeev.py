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
the signed d of the rotation (only a^2, |b|^3 and d enter T).  Equal masses
therefore build one grid, one diagonal stack and one cross block per z.  A
cross block whose two sides carry the same nodes, well and coupling is stored
exactly symmetric and serves both orientations, so every (row, col) entry
points at that buffer, and each matvec applies every distinct matrix once, in
one product over all the components it multiplies.  A cross block's only
table-sized buffer is its sin table (one per side on unequal nodes), built and
contracted into the block one momentum row at a time with the arithmetic of
one einsum over the whole table.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import (
    PAIRS,
    MassSet,
    ModelSpec,
    PotentialSpec,
    Quadrature,
    _gauss_legendre_panels,
    kinematic_rotation,
)
from . import twobody


class PairThresholdError(RuntimeError):
    """A pair sits at or above its coupling threshold; the resolvent series diverges."""


def t_function(p):
    """Momentum cutoff profile: sqrt(p) - 1 inside the unit ball, zero outside."""
    p = np.asarray(p, dtype=float)
    return np.where(p <= 1.0, np.sqrt(p) - 1.0, 0.0)


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True, eq=False)
class MixedGrid:
    """Product grid for one pair: radial x on (0, r_max], momentum p on (0, 4].

    Momentum panels refine geometrically toward p = 0 (scale set by z, where
    the small-momentum structure of the kernels lives) and carry an edge at
    |p| = 1 so the cutoff profile t(p) is never straddled.
    """

    x_quad: Quadrature
    p_nodes: np.ndarray
    p_weights: np.ndarray

    @property
    def n_x(self) -> int:
        return self.x_quad.n

    @property
    def n_p(self) -> int:
        return self.p_nodes.size

    @property
    def dim(self) -> int:
        return self.n_x * self.n_p


def momentum_edges(z: float) -> list[float]:
    edges = [0.0]
    t = max(z, 1e-6) / 3.0
    while t < 0.25:
        edges.append(t)
        t *= 4.0
    return sorted(set(edges + [0.5, 1.0, 2.0, 4.0]))


def build_mixed_grid(
    pot_scaled: PotentialSpec,
    z: float,
    n_x: int = 28,
    n_p_per_panel: int = 6,
) -> MixedGrid:
    """Radial x grid of the pair well and the momentum panels of z.

    The x grid has five radial panels and each takes at least 4 nodes, so it
    holds max(n_x, 20) nodes: n_x = 16 builds 20.
    """
    x_quad = Quadrature.for_potential(pot_scaled, n=n_x)
    edges = momentum_edges(z)
    counts = [n_p_per_panel] * (len(edges) - 1)
    pn, pw, _ = _gauss_legendre_panels(edges, counts)
    return MixedGrid(x_quad=x_quad, p_nodes=pn, p_weights=pw)


# ---------------------------------------------------------------------------
# block assembly


def assemble_diagonal_block(
    pot: PotentialSpec, coupling: float, z: float, grid: MixedGrid
) -> np.ndarray:
    """Per-momentum stack of 2-body kernels at k = sqrt(p^2 + z^2), shape (n_p, n_x, n_x)."""
    if not (z > 0 and math.isfinite(z * z)):
        raise ValueError("z must be positive with a finite square")
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
) -> np.ndarray:
    """Cross-frame coupling block, shape (n_p*n_x of row, n_p*n_x of col).

    pot_row / pot_col are the wells expressed in each pair's scaled internal
    coordinate; couplings enter symmetrically as sqrt(lam_row * lam_col).
    Entries carry the quadrature weights of both sides, so the stacked system
    acts on plain coefficient vectors.  On equal grid nodes one sin table
    serves both sides; with the same well and coupling too, the block is
    returned exactly symmetric.
    """
    if not (z > 0 and math.isfinite(z * z)):
        raise ValueError("z must be positive with a finite square")
    if row_pair == col_pair:
        raise ValueError("off-diagonal block needs distinct pairs")

    R = kinematic_rotation(masses, row_pair, col_pair)
    a, b, d = R[0, 0], R[0, 1], R[1, 1]
    # on equal nodes m(p, q, u) = nu(q, p, u): one sin table serves both sides
    mirrored = np.array_equal(grid_row.p_nodes, grid_col.p_nodes) and np.array_equal(
        grid_row.x_quad.nodes, grid_col.x_quad.nodes
    )

    u, wu = np.polynomial.legendre.leggauss(n_angle)
    P = grid_row.p_nodes[:, None, None]
    Q = grid_col.p_nodes[None, :, None]
    U = u[None, None, :]
    D2 = (P**2 + Q**2 - 2.0 * d * P * Q * U) / (b * b) + z * z
    coef = (P * Q / (np.pi * abs(b) ** 3)) * wu[None, None, :] / D2

    def wave(v, w):  # nu = wave(P, Q), m = wave(Q, P)
        return np.sqrt(np.maximum((a * a * v**2 + w**2 - 2.0 * d * P * Q * U) / (b * b), 0.0))

    # sin(nu r)/nu and sin(m s)/m as (p, q, u, r) tables, stable at vanishing
    # wave numbers; the only table-sized buffers
    SR = _sin_table(wave(P, Q), grid_row.x_quad.nodes)
    SC = SR.transpose(1, 0, 2, 3) if mirrored else _sin_table(wave(Q, P), grid_col.x_quad.nodes)

    def fold(grid, pot, coupling):  # sqrt of both quadrature weights and the coupled well
        return np.sqrt(grid.p_weights[:, None] * grid.x_quad.weights[None, :] * coupling
                       * pot.value(grid.x_quad.nodes)[None, :])

    row_fold = fold(grid_row, pot_row, coupling_row)
    col_fold = fold(grid_col, pot_col, coupling_col)

    # row by row, the products of einsum's optimized path for "pqur,pqus,pqu->prqs",
    # which keep its bits: coef * SR in SR's layout, then one GEMM per (p, q) over
    # u with that product as the transposed left factor (not a C-ordered copy)
    T = np.empty((grid_row.n_p, grid_row.n_x, grid_col.n_p, grid_col.n_x))
    x_row = np.empty_like(SR[0])
    for i, T_i in enumerate(T):
        np.multiply(coef[i][..., None], SR[i], out=x_row)
        np.matmul(x_row.transpose(0, 2, 1), SC[i], out=T_i.transpose(1, 0, 2))
        T_i *= row_fold[i][:, None, None]
        T_i *= col_fold
    T = T.reshape(grid_row.dim, grid_col.dim)
    if mirrored and np.array_equal(row_fold, col_fold):
        # symmetric in exact arithmetic (same nodes, well and coupling on both
        # sides): store it exactly symmetric, 0.5 (T + T^T) one block row at a time
        for lo in range(0, grid_row.dim, grid_row.n_x):
            half = T[lo : lo + grid_row.n_x, lo:] + T[lo:, lo : lo + grid_row.n_x].T
            half *= 0.5
            T[lo : lo + grid_row.n_x, lo:] = half
            T[lo:, lo : lo + grid_row.n_x] = half.T
    return T


def _sin_table(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x * sinc(k x / pi) = sin(k x)/k, shape k.shape + x.shape, one row of k at a time."""
    out = np.empty(k.shape + x.shape)
    for k_row, out_row in zip(k, out):
        np.multiply(x, np.sinc(k_row[..., None] * x / np.pi), out=out_row)
    return out


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
    n_angle: int = 32,
) -> BlockOperator:
    """Build all active blocks of the coupled system for the given model.

    Each grid, diagonal stack (with its eigendecomposition) and cross block
    is built once per distinct content key and shared by every pair that
    has that key.
    """
    active = model.active_pairs()
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
            lambda: build_mixed_grid(pots[pair], z, n_x, n_p_per_panel),
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
# Users' Guide, 1998).  The same tolerance and iteration cap stop the power
# iteration that takes over when ARPACK does not converge.
_LANCZOS_NCV = 6
_LANCZOS_TOL = 1e-10
_LANCZOS_MAXITER = 2000


def _top_eigenpair(n: int, matvec):
    """(|eigenvalue|, unit eigenvector) of largest magnitude of a symmetric map on R^n.

    A symmetric Lanczos solve (eigsh) from the all-ones vector; if ARPACK
    does not converge, power iteration on the same map takes over and stops
    once the Rayleigh-quotient residual is below _LANCZOS_TOL times the
    eigenvalue.
    """
    import scipy.sparse.linalg  # deferred: only the coupled solver loads scipy.sparse

    v0 = np.ones(n)
    lin = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            lin, k=1, which="LM", v0=v0, ncv=_LANCZOS_NCV, maxiter=_LANCZOS_MAXITER,
            tol=_LANCZOS_TOL,
        )
        return float(abs(vals[0])), vecs[:, 0]
    except scipy.sparse.linalg.ArpackNoConvergence:
        vec = v0 / np.linalg.norm(v0)
        theta = 0.0
        for _ in range(_LANCZOS_MAXITER):
            w = matvec(vec)
            theta = float(vec @ w)
            nrm = np.linalg.norm(w)
            if nrm == 0.0 or np.linalg.norm(w - theta * vec) <= _LANCZOS_TOL * abs(theta):
                break
            vec = w / nrm
        return abs(theta), vec


def faddeev_solve(op: BlockOperator, scale: float = 1.0) -> FaddeevSolution:
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
        op.dim(), lambda y: _fibered(op, half, _exchange(op, _fibered(op, half, y)))
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


@dataclass(frozen=True)
class RadiusRow:
    """Spectral radius of the coupled system at z and the residual of its solve."""

    z: float
    spectral_radius: float
    residual: float


def radius_rows(model: ModelSpec, z_list: Sequence[float], **grid_kw) -> list[RadiusRow]:
    """One RadiusRow per z of z_list, in ascending z; a radius of one is a level at -z^2."""
    sols = (faddeev_solve(assemble_block_operator(model, z, **grid_kw)) for z in sorted(z_list))
    return [RadiusRow(sol.z, sol.spectral_radius, sol.residual) for sol in sols]


# The two spectral points z of the extrapolation to the threshold z = 0.
THRESHOLD_Z = (1e-2, 1e-3)


def threshold_operators(model: ModelSpec, **grid_kw) -> tuple:
    """One block operator per z of THRESHOLD_Z, assembled at the model's couplings.

    Every overall coupling scale of the model reuses them through
    faddeev_solve(..., scale=s).
    """
    return tuple(assemble_block_operator(model, z, **grid_kw) for z in THRESHOLD_Z)


def _to_zero(ops: Sequence[BlockOperator], values: Sequence[float]) -> float:
    """Linear-in-z extrapolation to z = 0 of values taken at the z of the two ops."""
    (z2, z3), (v2, v3) = (op.z for op in ops), values
    return float((z2 * v3 - z3 * v2) / (z2 - z3))


def extrapolated_radius(ops: Sequence[BlockOperator], scale: float = 1.0) -> float:
    """Linear-in-z extrapolation to z = 0 of the spectral radius at coupling scale s."""
    return _to_zero(ops, [faddeev_solve(op, scale=scale).spectral_radius for op in ops])


def radius_at_zero(model: ModelSpec, **grid_kw) -> float:
    """Linear-in-z extrapolation of the spectral radius to the threshold point."""
    return extrapolated_radius(threshold_operators(model, **grid_kw))


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


def bs_threshold_coupling(model: ModelSpec, **grid_kw) -> float:
    """Overall coupling scale at which the model's coupled system binds at z = 0."""
    return threshold_scale(threshold_operators(model, **grid_kw))


# ---------------------------------------------------------------------------
# inequality suite

# Additive slack of the sub-threshold bound rows, and of the continuity bound
# for its discretization.
_SUBTHRESHOLD_TOL = 1e-10
_CONTINUITY_SLACK = 1e-6


@dataclass(frozen=True)
class BoundRow:
    """One operator-inequality row: lhs against its bound rhs at z (at xi for green6)."""

    check: str
    z: float
    lhs: float
    rhs: float
    passed: bool


def hs_norm_K2(
    pot12: PotentialSpec, pot23: PotentialSpec, masses: MassSet, z: float
) -> BoundRow:
    """Hilbert-Schmidt norm^2 of the singular part of the rotation coupling.

    The squared kernel factorizes into the volume constants c c' c~ times a
    momentum integral over the unit ball; the closed bound replaces that
    integral by its p^-2 majorant.  pot12 is the (12) well in its scaled
    internal coordinate, pot23 the (23) well as given:

    c   : volume integral of pot12,
    c'  : volume integral of exp(-2|x|)/|x|^2, 2 pi (model independent),
    c~  : Plancherel norm of the Fourier transform of sqrt(V23), volume(V23) / gamma^3,
          with gamma = 1/sqrt(2 M) the spectator scale of the (12) frame.
    """
    if not 0 < z:
        raise ValueError("z must be positive")
    gamma = 1.0 / math.sqrt(2.0 * masses.big_m("12"))
    c, c_prime, c_tilde = pot12.volume(), 2.0 * math.pi, pot23.volume() / gamma**3
    # substitute p = t^2: the sqrt(p) cutoff profile becomes smooth in t.  The
    # integrand turns over at t ~ z and t ~ sqrt(z), so panels grow by 4 from z.
    edges, e = [0.0], z
    while e < 1.0:
        edges.append(e)
        e *= 4.0
    t, wt, _ = _gauss_legendre_panels(edges + [1.0], [20] * len(edges))
    # 1/(z + 1 + tf) - 1/(z + 1), without the cancellation at large z
    tf = t_function(t**2)
    bracket = -tf / ((z + 1.0 + tf) * (z + 1.0))
    integrand = 4.0 * np.pi * t**4 * bracket**2 / np.sqrt(t**4 + z * z) * 2.0 * t
    ip = float(np.sum(wt * integrand))
    hs = c * c_prime * c_tilde * ip / (2.0**7 * np.pi**5)
    bound = c * c_prime * c_tilde / (2.0**5 * np.pi**4)
    return BoundRow("hs_bound", float(z), hs, bound, hs <= bound * (1.0 + 1e-12))


def subthreshold_bound_check(
    model: ModelSpec, pair: str, z_list: Sequence[float], n: int
) -> list[BoundRow]:
    """coupling * |pair resolvent-sandwich norm| <= 1 - eps/(coupling+eps) per z.

    The 3-body diagonal block norm is the small-momentum fiber, i.e. the
    2-body norm at k = z, taken on the pair well's own n-node radial grid.  A
    row passes within _SUBTHRESHOLD_TOL of its bound and only if the pair holds
    the margin: a resonant or bound pair reports its rows as failed.
    """
    pot = model.scaled_potential(pair)
    coupling, epsilon = model.couplings.get(pair), model.couplings.margin_epsilon
    quad = Quadrature.for_potential(pot, n=n)
    cls = twobody.classify_pair(pot, coupling, quad, epsilon)
    pre = cls.category == twobody.PairClass.UNBOUND_WITH_MARGIN
    rhs = 1.0 - epsilon / (coupling + epsilon)
    rows = []
    for z in z_list:
        lhs = coupling * twobody.mu_max(pot, 1.0, z, quad) if coupling > 0 else 0.0
        rows.append(BoundRow(f"subthreshold_{pair}", float(z), lhs, rhs,
                             pre and lhs <= rhs + _SUBTHRESHOLD_TOL))
    return rows


def continuity_modulus_check(
    model: ModelSpec,
    row_pair: str,
    col_pair: str,
    z_pairs: Sequence[tuple[float, float]],
    n: int,
    n_angle: int = 32,
    **grid_kw,
) -> list[BoundRow]:
    """Norm continuity in z of the coupling-free block against the volume-constant bound.

    A diagonal block is the pair operator on the well's own n-node radial
    grid; a cross block is assembled on the mixed grids of grid_kw.
    """
    pot_row, pot_col = (model.scaled_potential(p) for p in (row_pair, col_pair))
    ell = math.sqrt(pot_row.volume() * pot_col.volume()) / (4.0 * np.pi)
    quad = Quadrature.for_potential(pot_row, n=n)
    rows = []
    for z1, z2 in z_pairs:
        if row_pair == col_pair:
            # the fiber difference norm is bounded by the difference at the
            # smallest wave number; evaluate the matrix difference directly
            m1, m2 = (twobody.assemble_bs(pot_row, 1.0, z, quad).matrix for z in (z1, z2))
            norm_diff = float(np.max(np.abs(np.linalg.eigvalsh(m1 - m2))))
        else:
            grids = [build_mixed_grid(p, min(z1, z2), **grid_kw) for p in (pot_row, pot_col)]
            b1, b2 = (
                assemble_offdiagonal_block(model.masses, row_pair, col_pair, pot_row, pot_col,
                                           1.0, 1.0, z, *grids, n_angle=n_angle)
                for z in (z1, z2)
            )
            norm_diff = float(np.linalg.norm(b1 - b2, 2))
        bound = ell * math.sqrt(abs(z2 * z2 - z1 * z1)) + _CONTINUITY_SLACK
        rows.append(BoundRow(f"continuity_{row_pair}_{col_pair}", float(z1), norm_diff, bound,
                             norm_diff <= bound))
    return rows


@dataclass(frozen=True)
class Green6Row:
    xi: float
    value: float
    bound: float
    passed: bool


def green6_bound_check(xi_list: Sequence[float]) -> list[Green6Row]:
    """Pointwise heat-kernel bound on the 6D free resolvent kernel at energy -1.

    The kernel is (4 pi)^-3 xi^-4 int_0^inf t^-3 exp(-t xi^2 - 1/(4t)) dt
    = K_2(xi) / (8 pi^3 xi^2), with K_2 the modified Bessel function.  Both
    sides are float64 expressions, so no xi raises: a side above float64's
    range is infinite (xi below ~1e-77), one below it zero (xi above ~700).
    The bound holds with a margin of 12 or more at every xi, so a side that
    underflows to zero still compares as the exact values do.
    """
    import scipy.special  # deferred: no other path of the package needs scipy.special

    rows = []
    for xi in xi_list:
        if not xi > 0:
            raise ValueError("xi must be positive")
        x = np.float64(xi)
        with np.errstate(over="ignore", divide="ignore"):
            g0 = float(scipy.special.kv(2, x) / (8.0 * np.pi**3 * x**2))
            bound = float(4.0 / (9.0 * np.pi * x**4)) * math.exp(-xi / 2.0)
        rows.append(Green6Row(xi=float(xi), value=g0, bound=bound, passed=g0 <= bound))
    return rows


def inequality_suite(
    model: ModelSpec, z_list: Sequence[float], xi_list: Sequence[float], n: int, **grid_kw
) -> list[BoundRow]:
    """The operator inequalities of the absorption argument, one row per check and point.

    In order, over ascending z: the Hilbert-Schmidt bound of the (12)-(23)
    coupling; norm continuity between consecutive z of the (12) diagonal and
    the (12)-(23) cross block; each pair's sub-threshold margin; then the 6D
    Green's-function bound per xi.  n is the node count of each pair well's
    own radial grid, grid_kw the mixed grid of the cross block.
    """
    zs = sorted(z_list)
    rows = [hs_norm_K2(model.scaled_potential("12"), model.potential("23"), model.masses, z)
            for z in zs]
    for col_pair in ("12", "23"):
        rows += continuity_modulus_check(model, "12", col_pair, list(zip(zs, zs[1:])), n,
                                         **grid_kw)
    for pair in PAIRS:
        rows += subthreshold_bound_check(model, pair, zs, n)
    return rows + [BoundRow("green6", g.xi, g.value, g.bound, g.passed)
                   for g in green6_bound_check(xi_list)]


@dataclass(frozen=True)
class JRow:
    z: float
    j: float
    lower_bound: float
    r_squared: float

    @property
    def bound_holds(self) -> bool:
        return self.j >= self.lower_bound * (1.0 - 1e-9)


def j_epsilon_divergence(
    pot: PotentialSpec, eps0: float, z_list: Sequence[float]
) -> list[JRow]:
    """Small-momentum weighted mass of a non-negative well g = V against (p^2+z^2)^{-3/2}.

    One row per z, in descending z: the sampled integral J(z), its proven
    lower bound, and the R^2 of the linear fit of J against log(1/z) (the
    divergence is logarithmic).  g is sampled on 400 m Gauss-Legendre nodes over
    (0, 40 * range], m = ceil(eps0 * range / 10), so that sin(p r) stays
    resolved up to p = eps0.
    """
    a = pot.range
    m = max(1, math.ceil(eps0 * a / 10.0))
    r, wr, _ = _gauss_legendre_panels([0.0, 10.0 * a, 20.0 * a, 40.0 * a],
                                      [200 * m, 100 * m, 100 * m])
    gr = np.asarray(pot.value(r), dtype=float)
    if np.any(gr < 0):
        raise ValueError("g must be non-negative")
    norm1 = float(4.0 * np.pi * np.sum(wr * r * r * gr))
    zs = np.asarray(sorted(z_list, reverse=True), dtype=float)
    if norm1 <= 0.0 or not zs.size:  # nothing to fit
        return [JRow(float(z), 0.0, 0.0, 1.0) for z in zs]

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

    js = np.empty_like(zs)
    lbs = np.empty_like(zs)
    for i, z in enumerate(zs):
        # panels grow from z (the denominator) and from 1/range (the decay of ghat)
        pedges = [0.0] + [z * 4.0**j for j in range(0, 12) if z * 4.0**j < eps0] + [eps0]
        pedges += [2.0**j / a for j in range(0, 24) if 2.0**j / a < eps0]
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
    return [JRow(float(z), float(j), float(lb), float(r2)) for z, j, lb in zip(zs, js, lbs)]
