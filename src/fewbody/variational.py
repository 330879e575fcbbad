"""Independent 3-body solver: correlated Gaussians on the mass-scaled frame.

Basis functions are exp(-a x^2 - b y^2 - c x.y) on the (12)-frame Jacobi
coordinates (zero total angular momentum ansatz).  Overlap and kinetic
matrix elements are closed form; pair potentials reduce to a 1D radial
integral against the Gaussian pair-separation density.  None of these, nor
the Gram reduction, depends on the couplings: hamiltonian_matrices builds
them once and a coupling scan pays one reduced eigensolve per point.  The
localization probability P(R) restricts the 6D density to a ball, which
collapses to a 1D hyperradial quadrature with a Bessel weight.  All radii of
a state come from one hyperradial pass; pair Gaussians lying wholly inside
the ball take the closed-form overlap.  A P(R) outside [0, 1] by more than
its rounding estimate raises IllConditionedBasisError (CLI exit 3) instead
of being clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.linalg
from scipy.special import i1e

from .model import CouplingConfig, ModelSpec, PAIRS, Quadrature, _gauss_legendre_panels
from .faddeev import kinematic_rotation, pair_separation_coeffs
from . import twobody


class IllConditionedBasisError(RuntimeError):
    """Gram matrix unusable even after spectral-floor regularization."""


@dataclass(frozen=True, eq=False)
class GaussianBasis:
    """Width parameters (a_n, b_n, c_n) of exp(-a x^2 - b y^2 - c x.y)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if not (np.all(self.a > 0) and np.all(self.b > 0)):
            raise ValueError("diagonal widths must be positive")
        if not np.all(self.a * self.b - 0.25 * self.c**2 > 0):
            raise ValueError("width matrices must be positive definite")

    @property
    def size(self) -> int:
        return self.a.size

    def merged(self, other: "GaussianBasis") -> "GaussianBasis":
        return GaussianBasis(
            a=np.concatenate([self.a, other.a]),
            b=np.concatenate([self.b, other.b]),
            c=np.concatenate([self.c, other.c]),
        )


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """Deterministic geometric-progression basis, optionally frame adapted.

    correlations is either a tuple of cross-term levels kappa (c =
    kappa * 2 * sqrt(a*b)) or the string "frames", which instead places
    product Gaussians on each pair's own Jacobi frame and rotates them into
    the common frame (near-threshold states are strongly pair-clustered, so
    this is the workhorse for threshold scans).
    """

    scale_min_x: float = 0.4
    scale_max_x: float = 12.0
    n_x: int = 8
    scale_min_y: float = 0.4
    scale_max_y: float = 30.0
    n_y: int = 8
    correlations: Union[tuple, str] = (-0.6, 0.0, 0.6)
    n_random: int = 0
    seed: Optional[int] = None
    symmetrize_12: bool = False


def build_basis(spec: BasisSpec, masses=None) -> GaussianBasis:
    """Materialize a basis; frames mode needs the mass set for the rotations."""
    sx = np.geomspace(spec.scale_min_x, spec.scale_max_x, spec.n_x)
    sy = np.geomspace(spec.scale_min_y, spec.scale_max_y, spec.n_y)
    rows = []
    if spec.correlations == "frames":
        if masses is None:
            raise ValueError("frames-mode basis needs masses")
        for pair in PAIRS:
            R = kinematic_rotation(masses, "12", pair)
            for si in sx:
                for so in sy:
                    D = np.diag([1.0 / si**2, 1.0 / so**2])
                    Q = R.T @ D @ R
                    rows.append((Q[0, 0], Q[1, 1], 2.0 * Q[0, 1]))
    else:
        for kappa in spec.correlations:
            if not -1.0 < kappa < 1.0:
                raise ValueError("correlation levels must lie in (-1, 1)")
            for si in sx:
                for so in sy:
                    a, b = 1.0 / si**2, 1.0 / so**2
                    rows.append((a, b, kappa * 2.0 * math.sqrt(a * b)))
    if spec.n_random:
        if spec.seed is None:
            raise ValueError("stochastic refinement needs a seed")
        rng = np.random.default_rng(spec.seed)
        la, lb = np.log(1.0 / spec.scale_max_x**2), np.log(1.0 / spec.scale_min_x**2)
        lc, ld = np.log(1.0 / spec.scale_max_y**2), np.log(1.0 / spec.scale_min_y**2)
        for _ in range(spec.n_random):
            a = math.exp(rng.uniform(la, lb))
            b = math.exp(rng.uniform(lc, ld))
            kappa = rng.uniform(-0.9, 0.9)
            rows.append((a, b, kappa * 2.0 * math.sqrt(a * b)))
    if spec.symmetrize_12:
        rows += [(a, b, -c) for (a, b, c) in rows if c != 0.0]

    # prune near-duplicates (frames mode generates exact repeats at s_i = s_o)
    seen, keep = set(), []
    for a, b, c in rows:
        key = (round(math.log(a), 10), round(math.log(b), 10), round(c / math.sqrt(a * b), 10))
        if key not in seen:
            seen.add(key)
            keep.append((a, b, c))
    arr = np.array(keep)
    return GaussianBasis(a=arr[:, 0], b=arr[:, 1], c=arr[:, 2])


# ---------------------------------------------------------------------------
# matrix elements


def _pair_forms(basis: GaussianBasis):
    """Pairwise sums of width matrices: Ba, Bb, Bc2 (= B12 entry) and det."""
    a, b, c = basis.a, basis.b, basis.c
    Ba = a[:, None] + a[None, :]
    Bb = b[:, None] + b[None, :]
    Bc2 = 0.5 * (c[:, None] + c[None, :])
    det = Ba * Bb - Bc2**2
    return Ba, Bb, Bc2, det


def overlap_matrix(basis: GaussianBasis) -> np.ndarray:
    _, _, _, det = _pair_forms(basis)
    return np.pi**3 / det**1.5


def kinetic_matrix(basis: GaussianBasis) -> np.ndarray:
    a, b, c = basis.a, basis.b, basis.c
    Ba, Bb, Bc2, det = _pair_forms(basis)
    am, bm, cm2 = a[:, None], b[:, None], 0.5 * c[:, None]
    an, bn, cn2 = a[None, :], b[None, :], 0.5 * c[None, :]
    tr = (
        (am * Bb - cm2 * Bc2) * an
        + (-am * Bc2 + cm2 * Ba) * cn2
        + (cm2 * Bb - bm * Bc2) * cn2
        + (-cm2 * Bc2 + bm * Ba) * bn
    ) / det
    return 6.0 * tr * overlap_matrix(basis)


def pair_width_matrix(basis: GaussianBasis, coeffs: tuple[float, float]) -> np.ndarray:
    """Inverse variance c_B of the pair-separation marginal |P x + Q y|."""
    P, Q = coeffs
    Ba, Bb, Bc2, det = _pair_forms(basis)
    quad_form = (P * P * Bb - 2.0 * P * Q * Bc2 + Q * Q * Ba) / det
    return 1.0 / quad_form


def potential_matrix(
    basis: GaussianBasis, model: ModelSpec, pair: str, quad: Optional[Quadrature] = None
) -> np.ndarray:
    """<m| V_pair(|separation|) |n> without the coupling factor."""
    pot = model.potential(pair)
    cb = pair_width_matrix(basis, pair_separation_coeffs(model.masses, pair))
    S = overlap_matrix(basis)
    if pot.kind == "gaussian":
        return S * pot.depth * (cb / (cb + 1.0 / pot.range**2)) ** 1.5
    if quad is None:
        quad = Quadrature.for_potential(pot)
    w, r = quad.weights, quad.nodes
    integrand = r * r * pot.value(r)
    dens = np.exp(-cb[..., None] * r[None, None, :] ** 2)
    radial = 4.0 * np.pi * np.einsum("mnr,r->mn", dens, w * integrand)
    return S * (cb / np.pi) ** 1.5 * radial


@dataclass(frozen=True, eq=False)
class GroundState:
    energy: float
    coefficients: np.ndarray  # in the unit-diagonal normalized basis
    gram: np.ndarray
    basis: GaussianBasis
    eigenvalues: np.ndarray  # full retained spectrum, ascending

    def __post_init__(self):
        norm = float(self.coefficients @ self.gram @ self.coefficients)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state normalization defect {norm - 1.0:.2e}")


@dataclass(frozen=True, eq=False)
class HamiltonianMatrices:
    """The coupling-independent matrices of one (model, basis).

    kinetic and the pair potentials (without their couplings) are in the raw
    basis; norm rescales to unit Gram diagonal, gram is the rescaled overlap
    and reduction maps onto its retained directions (Gram = identity there).
    H = K - sum_p lambda_p V_p is evaluated at any coupling vector; only the
    pairs active in the model it was built from carry a potential, so a
    coupling path is served by the matrices of its upper end.
    """

    basis: GaussianBasis
    kinetic: np.ndarray
    potentials: dict  # active pair -> V_pair
    norm: np.ndarray
    gram: np.ndarray
    reduction: np.ndarray

    def _project(self, M: np.ndarray) -> np.ndarray:
        """M in the unit-diagonal basis, restricted to the retained Gram directions."""
        M = M * np.outer(self.norm, self.norm)
        if not np.all(np.isfinite(M)):
            raise IllConditionedBasisError("non-finite matrix elements")
        Y = self.reduction
        return Y.T @ M @ Y

    def _reduced(self, couplings: CouplingConfig) -> np.ndarray:
        """H = K - sum_p lambda_p V_p on the retained Gram directions."""
        H = self.kinetic
        for pair, V in self.potentials.items():
            H = H - couplings.get(pair) * V
        return self._project(H)

    def ground(self, couplings: CouplingConfig) -> GroundState:
        """Lowest level of H at the given couplings, its state and the full retained spectrum."""
        evals, evecs = np.linalg.eigh(self._reduced(couplings))
        return GroundState(
            energy=float(evals[0]),
            coefficients=self.reduction @ evecs[:, 0],
            gram=self.gram,
            basis=self.basis,
            eigenvalues=evals,
        )

    def crossing(self, start: CouplingConfig, end: CouplingConfig, level: float) -> float:
        """Smallest t > 0 at which the lowest level of H(start + t (end - start)) is `level`.

        H(t) = H(start) - t W with W = sum_p (end_p - start_p) V_p, so that is
        t* = 1/mu_max of the definite pencil W phi = mu (H(start) - level) phi
        (Birman-Schwinger in a finite basis; Parlett, The Symmetric Eigenvalue
        Problem, 1998), or inf when mu_max <= 0.  numpy.linalg.LinAlgError if
        H(start) - level is not positive definite (a level at or below it).
        """
        A = self._reduced(start)
        A[np.diag_indices_from(A)] -= level
        W = self._project(
            sum((end.get(pair) - start.get(pair)) * V for pair, V in self.potentials.items())
        )
        n = A.shape[0]
        mu = scipy.linalg.eigh(W, A, subset_by_index=[n - 1, n - 1], eigvals_only=True)[0]
        return float(1.0 / mu) if mu > 0 else math.inf


def hamiltonian_matrices(
    model: ModelSpec, basis: GaussianBasis, gram_floor: float = 1e-12
) -> HamiltonianMatrices:
    """Kinetic, overlap and pair-potential matrices plus the spectral-floor Gram reduction.

    None of them depends on the couplings, so a coupling scan or path builds
    them once and pays one reduced eigensolve per point.
    """
    active = [
        pair
        for pair in PAIRS
        if model.couplings.get(pair) > 0 and not model.potential(pair).is_zero()
    ]
    S = overlap_matrix(basis)
    norm = 1.0 / np.sqrt(np.diag(S))
    S = S * np.outer(norm, norm)
    if not np.all(np.isfinite(S)):
        raise IllConditionedBasisError("non-finite matrix elements")
    vals, vecs = np.linalg.eigh(S)
    keep = vals > gram_floor * vals[-1]
    if not np.any(keep):
        raise IllConditionedBasisError("Gram spectrum collapsed under the floor")
    return HamiltonianMatrices(
        basis=basis,
        kinetic=kinetic_matrix(basis),
        potentials={pair: potential_matrix(basis, model, pair) for pair in active},
        norm=norm,
        gram=S,
        reduction=vecs[:, keep] / np.sqrt(vals[keep])[None, :],
    )


def solve_ground(
    model: ModelSpec,
    basis: GaussianBasis,
    gram_floor: float = 1e-12,
) -> GroundState:
    """Generalized symmetric eigensolve with spectral-floor Gram regularization."""
    return hamiltonian_matrices(model, basis, gram_floor).ground(model.couplings)


def hvz_bottom(model: ModelSpec) -> float:
    """Bottom of the essential spectrum: the lowest pair level, or zero."""
    bottom = 0.0
    for pair in PAIRS:
        lam = model.couplings.get(pair)
        if lam <= 0 or model.potential(pair).is_zero():
            continue
        e0 = twobody.shooting_ground_energy(model.scaled_potential(pair), lam)
        if e0 is not None:
            bottom = min(bottom, e0)
    return bottom


def bound_state_count(
    model: ModelSpec,
    basis: GaussianBasis,
    tol: float = 1e-8,
) -> int:
    gs = solve_ground(model, basis)
    return int(np.sum(gs.eigenvalues < hvz_bottom(model) - tol))


# ---------------------------------------------------------------------------
# localization probability

# A pair Gaussian with beta_min R^2 >= 50 keeps all but
# e^-50 (1 + 50 + 50^2/2) < 3e-19 of its mass inside the ball (the isotropic
# 6D tail at beta_min bounds the anisotropic one), so it takes the closed form.
_INTERIOR = 50.0
# Gauss-Legendre nodes per hyperradial panel; panels span a ratio of at most 3.
_NODES_PER_PANEL = 20
# Pair forms per evaluation block: peak memory is O(_CHUNK * n_rho + N^2).
_CHUNK = 2048
# Rounding allowance of P(R) in units of float64 eps * |c|^T Ball |c|: ball
# entries carry up to ~200 eps of relative error (4.4e-14 measured against
# finer nodes and the closed form) and the quadratic form adds ~sqrt(N) eps;
# 1024 covers both up to N ~ 1e5.  Normalization defects of converged ground
# states stay below 1% of it.
_ROUNDING_ULPS = 1024


def _bessel_ratio_scaled(w: np.ndarray) -> np.ndarray:
    """exp(-w) * I_1(w)/w for w >= 0; i1e stays exact through w ~ 1e20."""
    w = np.asarray(w, dtype=float)
    small = w < 1e-6
    out = i1e(w) / np.where(small, 1.0, w)
    out[small] = (0.5 + w[small] ** 2 / 16.0) * np.exp(-w[small])
    return out


def _hyperradial_rule(beta_max: float, cuts: np.ndarray):
    """Nodes and per-radius weights of one cumulative Gauss-Legendre rule.

    Panels are [0, lo], lo well inside the tightest Gaussian, then geometric
    panels of ratio at most 3 up to each cut in turn, so every cut is a panel
    edge.  Column j of the weights integrates rho^5 f(rho) over [0, cuts[j]].
    """
    lo = min(0.05 / math.sqrt(beta_max), 0.25 * cuts[0])
    edges = [0.0, lo]
    for b in cuts:
        n = max(1, math.ceil(math.log(b / edges[-1]) / math.log(3.0)))
        edges += list(np.geomspace(edges[-1], b, n + 1)[1:])
    rho, w, _ = _gauss_legendre_panels(edges, [_NODES_PER_PANEL] * (len(edges) - 1))
    return rho, (w * rho**5)[:, None] * (rho[:, None] < cuts[None, :])


def ball_overlap(Ba, Bb, Bc2, R):
    """Integral of exp(-xi^T B xi) over the 6D ball |xi| <= R, for symmetric N x N forms.

    Diagonalizing each 2x2 form gives eigenvalues beta_min <= beta_max with
    mean tr and half-gap gap; the angular part integrates to a Bessel I_1
    weight and one hyperradial integral remains:
    2 pi^3 int_0^R rho^5 e^{-tr rho^2} [I_1(gap rho^2)/(gap rho^2)] drho.

    R is a scalar (one N x N result) or a 1-D array of radii (one matrix per
    radius).  All radii come from one hyperradial pass: one cumulative
    quadrature with a panel edge at every radius, over the upper triangle
    only (the matrix is symmetric), in fixed-size blocks of pair forms.  A
    pair whose Gaussian lies wholly inside the ball (beta_min R^2 >= 50)
    takes the closed-form overlap pi^3/det^{3/2} instead.
    """
    radii = np.asarray(R, dtype=float)
    r = np.atleast_1d(radii)[:, None]
    iu = np.triu_indices(Ba.shape[0])
    ba, bb, bc = Ba[iu], Bb[iu], Bc2[iu]
    tr = 0.5 * (ba + bb)
    gap = np.sqrt(0.25 * (ba - bb) ** 2 + bc**2)  # |beta2 - beta1| / 2
    det = ba * bb - bc**2
    beta_min = det / (tr + gap)  # avoids the tr - gap cancellation
    vals = np.where(r > 0, np.pi**3 / det**1.5, 0.0)
    quad = (r > 0) & (beta_min * r**2 < _INTERIOR)  # radii x pairs
    pairs = np.flatnonzero(quad.any(axis=0))
    if pairs.size:
        cuts = np.unique(r[quad.any(axis=1), 0])
        rho, weights = _hyperradial_rule(float(np.max(tr[pairs] + gap[pairs])), cuts)
        rho2 = rho * rho
        acc = np.empty((pairs.size, cuts.size))
        for s in range(0, pairs.size, _CHUNK):
            p = pairs[s : s + _CHUNK]
            # exp(-tr rho2) I1(w)/w = exp(-beta_min rho2) * [exp(-w) I1(w)/w]
            f = _bessel_ratio_scaled(gap[p, None] * rho2) * np.exp(-beta_min[p, None] * rho2)
            acc[s : s + p.size] = f @ weights
        col = np.minimum(np.searchsorted(cuts, r[:, 0]), cuts.size - 1)
        sub = quad[:, pairs]
        vals[:, pairs] = np.where(sub, 2.0 * np.pi**3 * acc[:, col].T, vals[:, pairs])
    out = np.empty((r.shape[0], *Ba.shape))
    out[:, iu[0], iu[1]] = vals
    out[:, iu[1], iu[0]] = vals
    return out[0] if radii.ndim == 0 else out


def probability_inside(gs: GroundState, R):
    """P(R): probability mass of the normalized state inside the 6D ball |xi| <= R.

    R is a scalar (float result) or a 1-D array of radii (array result), all
    from one ball_overlap pass.  P is clamped into [0, 1] only within the
    rounding estimate delta of the quadratic form; beyond it the basis cannot
    resolve P and IllConditionedBasisError is raised.
    """
    radii = np.asarray(R, dtype=float)
    basis = gs.basis
    Ba, Bb, Bc2, _ = _pair_forms(basis)
    snorm = 1.0 / np.sqrt(np.diag(overlap_matrix(basis)))
    ball = ball_overlap(Ba, Bb, Bc2, radii) * np.outer(snorm, snorm)
    c, ac = gs.coefficients, np.abs(gs.coefficients)
    p = np.atleast_1d(ball @ c @ c)
    # ball entries integrate positive Gaussians, so |Ball| = Ball
    delta = _ROUNDING_ULPS * np.finfo(float).eps * np.atleast_1d(ball @ ac @ ac)
    bad = (p < -delta) | (p > 1.0 + delta)
    if np.any(bad):
        raise IllConditionedBasisError(
            f"P(R) = {p[bad]} lies outside [0, 1] beyond its rounding estimate {delta[bad]}"
        )
    p = np.clip(p, 0.0, 1.0)
    return float(p[0]) if radii.ndim == 0 else p


@dataclass(frozen=True, eq=False)
class SpreadingProbe:
    radii: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must increase")
        p = self.probabilities
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(np.diff(p) < -1e-9):
            raise ValueError("P(R) must be non-decreasing in R")


def spreading_probe(gs: GroundState, radii: Sequence[float]) -> SpreadingProbe:
    radii = np.asarray(sorted(radii), dtype=float)
    return SpreadingProbe(radii=radii, probabilities=probability_inside(gs, radii))
