"""Independent 3-body solver: correlated Gaussians on the mass-scaled frame.

Basis functions are exp(-a x^2 - b y^2 - c x.y) on the (12)-frame Jacobi
coordinates (zero total angular momentum ansatz).  Overlap and kinetic
matrix elements are closed form; pair potentials reduce to a 1D radial
integral against the Gaussian pair-separation density.  None of these, nor
the Gram reduction, depends on the couplings: hamiltonian_matrices builds
them once and a coupling scan pays one reduced eigensolve per point.  They
and the ball matrices are filled one block of rows at a time straight from
the width vectors, so a builder holds its outputs and one block.  The
localization probability P(R) restricts the 6D density to a ball, which
collapses to a 1D hyperradial quadrature with a Bessel weight.  The ball
matrices of all radii come from one hyperradial pass per basis, with one
integral per distinct eigenvalue pair of the pair forms (the ball is
rotation invariant); a pair of frames-mode functions takes its eigenvalues
from the two frame widths and the frame angle, so equal content in any
frames is one integral.  The Bessel weight takes its power series at small
arguments (w < 2) and a numpy port of Cephes' i1e above.  Each state then
costs one quadratic form.  A P(R) outside [0, 1] by more than its rounding
estimate raises IllConditionedBasisError (CLI exit 3) instead of being
clamped.

The basis, the matrix elements, the ground state, the threshold crossings,
hvz_bottom on unbound pairs and P(R) run on numpy alone; only a pair that
hvz_bottom has to shoot loads twobody's scipy solvers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .model import (
    _PAIR_INDEX, CouplingConfig, MassSet, ModelSpec, PAIRS, Quadrature, _gauss_legendre_panels,
    kinematic_rotation, pair_separation_coeffs,
)
from . import twobody


class IllConditionedBasisError(RuntimeError):
    """Non-finite matrix elements, or a P(R) outside [0, 1] beyond its rounding estimate."""


# Gram directions with eigenvalue below _GRAM_FLOOR times the largest are dropped.
_GRAM_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Frames:
    """Frame content of a basis: function n is exp(-d1 x^2 - d2 y^2) in a pair's frame.

    index[n] is the frame (an index into PAIRS) and widths[n] = (d1, d2) the
    widths there; index[n] = -1 marks a function with no frame (random,
    correlations mode, a symmetrize_12 copy).  The frames are the Jacobi
    frames of masses.
    """

    masses: MassSet
    index: np.ndarray
    widths: np.ndarray

    def angles(self) -> np.ndarray:
        """[A, B] = (cos^2, sin^2) of the kinematic angle between frames A and B.

        With spectators a, b, c of frames A, B, C and M the total mass,
        cos^2 = m_a m_b / D and sin^2 = M m_c / D, D = (M - m_a)(M - m_b):
        symmetric in (A, B) bit for bit, and (1, 0) for A = B.
        """
        m = self.masses.masses
        total = m[0] + m[1] + m[2]
        spect = [m[_PAIR_INDEX[pair][2]] for pair in PAIRS]
        table = np.zeros((3, 3, 2))
        table[..., 0] = 1.0
        for A, B in itertools.permutations(range(3), 2):
            ma, mb, mc = spect[A], spect[B], spect[3 - A - B]
            den = (total - ma) * (total - mb)
            table[A, B] = (ma * mb / den, total * mc / den)
        return table

    def keys(self, i: np.ndarray, j: np.ndarray):
        """(beta_min, gap, beta_max) of the pair forms of frame functions i and j.

        The form has the eigenvalues of D_i + R^T D_j R, R the kinematic
        rotation between the frames, so they depend on cos^2 of its angle
        only.  With widths (p1, p2) of i, (q1, q2) of j, dp = p1 - p2 and
        dq = q1 - q2:
            4 gap^2 = cos^2 (dp + dq)^2 + sin^2 (dp - dq)^2,
            det = p1 p2 + q1 q2 + cos^2 (p1 q2 + p2 q1) + sin^2 (p1 q1 + p2 q2).
        Both are sums of non-negative terms (no Ba Bb - Bc2^2 cancellation),
        and equal content gives bit-equal keys: the same widths at the same
        angle in any frames, in either order.  A same-frame pair, or one with
        an isotropic function, is diag(p1 + q1, p2 + q2) in a frame of its
        own: its eigenvalues are these sums, shared by every pair with the
        same sums.
        """
        (p1, p2), (q1, q2) = self.widths[i].T, self.widths[j].T
        c2, s2 = self.angles()[self.index[i], self.index[j]].T
        dp, dq = p1 - p2, q1 - q2
        gap = 0.5 * np.sqrt(c2 * (dp + dq) ** 2 + s2 * (dp - dq) ** 2)
        det = (p1 * p2 + q1 * q2) + c2 * (p1 * q2 + p2 * q1) + s2 * (p1 * q1 + p2 * q2)
        beta_max = 0.5 * ((p1 + p2) + (q1 + q2)) + gap
        beta_min = det / beta_max
        diagonal = (self.index[i] == self.index[j]) | (p1 == p2) | (q1 == q2)
        e1, e2 = p1 + q1, p2 + q2
        beta_min = np.where(diagonal, np.minimum(e1, e2), beta_min)
        beta_max = np.where(diagonal, np.maximum(e1, e2), beta_max)
        gap = np.where(diagonal, 0.5 * (beta_max - beta_min), gap)
        return beta_min, gap, beta_max


@dataclass(frozen=True, eq=False)
class GaussianBasis:
    """Width parameters (a_n, b_n, c_n) of exp(-a x^2 - b y^2 - c x.y).

    frames, when given, is the frame content of the functions (frames-mode
    bases); the ball integrals of a pair of frame functions are keyed by it.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    frames: Optional[Frames] = None

    def __post_init__(self):
        if not (np.all(self.a > 0) and np.all(self.b > 0)):
            raise ValueError("diagonal widths must be positive")
        if not np.all(self.a * self.b - 0.25 * self.c**2 > 0):
            raise ValueError("width matrices must be positive definite")

    @property
    def size(self) -> int:
        return self.a.size

    def merged(self, other: "GaussianBasis") -> "GaussianBasis":
        """Both bases' functions; a part whose frames are of other masses loses them."""
        frames = None
        if self.frames is not None or other.frames is not None:
            masses = (self.frames or other.frames).masses
            parts = [
                g.frames if g.frames is not None and g.frames.masses == masses
                else Frames(masses, np.full(g.size, -1), np.zeros((g.size, 2)))
                for g in (self, other)
            ]
            frames = Frames(masses, np.concatenate([f.index for f in parts]),
                            np.concatenate([f.widths for f in parts]))
        return GaussianBasis(
            a=np.concatenate([self.a, other.a]),
            b=np.concatenate([self.b, other.b]),
            c=np.concatenate([self.c, other.c]),
            frames=frames,
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


_NO_FRAME = (-1, 0.0, 0.0)  # frame index and widths of a function with no frame


def build_basis(spec: BasisSpec, masses: MassSet) -> GaussianBasis:
    """Materialize a basis; frames mode needs the mass set for the rotations."""
    sx = np.geomspace(spec.scale_min_x, spec.scale_max_x, spec.n_x)
    sy = np.geomspace(spec.scale_min_y, spec.scale_max_y, spec.n_y)
    rows = []  # (a, b, c, frame, d1, d2)
    if spec.correlations == "frames":
        for frame, pair in enumerate(PAIRS):
            R = kinematic_rotation(masses, "12", pair)
            for si in sx:
                for so in sy:
                    d1, d2 = 1.0 / si**2, 1.0 / so**2
                    Q = R.T @ np.diag([d1, d2]) @ R
                    rows.append((Q[0, 0], Q[1, 1], 2.0 * Q[0, 1], frame, d1, d2))
    else:
        for kappa in spec.correlations:
            if not -1.0 < kappa < 1.0:
                raise ValueError("correlation levels must lie in (-1, 1)")
            for si in sx:
                for so in sy:
                    a, b = 1.0 / si**2, 1.0 / so**2
                    rows.append((a, b, kappa * 2.0 * math.sqrt(a * b), *_NO_FRAME))
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
            rows.append((a, b, kappa * 2.0 * math.sqrt(a * b), *_NO_FRAME))
    if spec.symmetrize_12:
        rows += [(a, b, -c, *_NO_FRAME) for (a, b, c, *_) in rows if c != 0.0]

    # prune near-duplicates (frames mode generates exact repeats at s_i = s_o)
    seen, keep = set(), []
    for row in rows:
        a, b, c = row[:3]
        key = (round(math.log(a), 10), round(math.log(b), 10), round(c / math.sqrt(a * b), 10))
        if key not in seen:
            seen.add(key)
            keep.append(row)
    arr = np.array(keep)
    frame = arr[:, 3].astype(int)
    frames = Frames(masses, frame, arr[:, 4:]) if np.any(frame >= 0) else None
    return GaussianBasis(a=arr[:, 0], b=arr[:, 1], c=arr[:, 2], frames=frames)


# ---------------------------------------------------------------------------
# matrix elements

# Numbers per evaluation block.  The matrix builders fill their N x N outputs
# one block of rows at a time (_row_blocks), so beside the outputs they hold
# one block, not N x N pair forms or an N x N x n_r density; _i1e takes its
# arguments in blocks, whose buffers stay in cache (a whole 2048-key ball
# chunk at once ran about twice as slow per element on 2 cores).
_BLOCK = 16384


def _row_blocks(n: int, width: int = 1) -> list[np.ndarray]:
    """Consecutive row ranges of an n x n matrix, each of max(1, _BLOCK // (n * width)) rows.

    width is the numbers a block holds per entry (a quadrature's nodes).
    """
    rows = max(1, _BLOCK // (n * width))
    return [np.arange(s, min(s + rows, n)) for s in range(0, n, rows)]


class PairForms(NamedTuple):
    """Pairwise sums of width matrices Ba, Bb, Bc2 (= B12 entry), their det and the overlap."""

    Ba: np.ndarray
    Bb: np.ndarray
    Bc2: np.ndarray
    det: np.ndarray
    overlap: np.ndarray


def _pair_forms(basis: GaussianBasis, i: np.ndarray, j: np.ndarray) -> PairForms:
    """The pair forms of functions i with functions j, index arrays that broadcast.

    Build them once per block and pass them to every matrix element.
    """
    a, b, c = basis.a, basis.b, basis.c
    Ba = a[i] + a[j]
    Bb = b[i] + b[j]
    Bc2 = 0.5 * (c[i] + c[j])
    det = Ba * Bb - Bc2**2
    return PairForms(Ba, Bb, Bc2, det, np.pi**3 / det**1.5)


def _kinetic(basis: GaussianBasis, i: np.ndarray, j: np.ndarray, forms: PairForms) -> np.ndarray:
    """<m| T |n> of the pairs (i, j) whose forms are given."""
    a, b, c = basis.a, basis.b, basis.c
    Ba, Bb, Bc2, det, S = forms
    am, bm, cm2 = a[i], b[i], 0.5 * c[i]
    an, bn, cn2 = a[j], b[j], 0.5 * c[j]
    tr = (
        (am * Bb - cm2 * Bc2) * an
        + (-am * Bc2 + cm2 * Ba) * cn2
        + (cm2 * Bb - bm * Bc2) * cn2
        + (-cm2 * Bc2 + bm * Ba) * bn
    ) / det
    return 6.0 * tr * S


def _pair_width(coeffs: tuple[float, float], forms: PairForms) -> np.ndarray:
    """Inverse variance c_B of the pair-separation marginal |P x + Q y|."""
    P, Q = coeffs
    Ba, Bb, Bc2, det, _ = forms
    quad_form = (P * P * Bb - 2.0 * P * Q * Bc2 + Q * Q * Ba) / det
    return 1.0 / quad_form


def _potential_elements(model: ModelSpec, pair: str):
    """<m| V_pair(|separation|) |n> without the coupling, as a function of a block's forms.

    A Gaussian well is closed form; any other is a radial quadrature against
    the Gaussian pair-separation density, whose nodes and weighted values are
    built here, once per pair.  Returns the function and the numbers it
    holds per entry (1, or the quadrature's node count).
    """
    pot = model.potential(pair)
    coeffs = pair_separation_coeffs(model.masses, pair)
    if pot.kind == "gaussian":
        def elements(forms: PairForms) -> np.ndarray:
            cb = _pair_width(coeffs, forms)
            return forms.overlap * pot.depth * (cb / (cb + 1.0 / pot.range**2)) ** 1.5

        return elements, 1
    quad = Quadrature.for_potential(pot)
    w, r = quad.weights, quad.nodes
    integrand = r * r * pot.value(r)
    weights, r2 = w * integrand, r[None, None, :] ** 2

    def elements(forms: PairForms) -> np.ndarray:
        cb = _pair_width(coeffs, forms)
        dens = np.exp(-cb[..., None] * r2)
        radial = 4.0 * np.pi * np.einsum("mnr,r->mn", dens, weights)
        return forms.overlap * (cb / np.pi) ** 1.5 * radial

    return elements, r.size


@dataclass(frozen=True, eq=False)
class GroundState:
    energy: float
    coefficients: np.ndarray  # in the unit-diagonal normalized basis
    gram: np.ndarray
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
            eigenvalues=evals,
        )

    def crossing(self, start: CouplingConfig, end: CouplingConfig, level: float) -> float:
        """Smallest t > 0 at which the lowest level of H(start + t (end - start)) is `level`.

        H(t) = H(start) - t W with W = sum_p (end_p - start_p) V_p, so that is
        t* = 1/mu_max of the definite pencil W phi = mu (H(start) - level) phi
        (Birman-Schwinger in a finite basis; Parlett, The Symmetric Eigenvalue
        Problem, 1998), or inf when mu_max <= 0.  With the Cholesky factor
        H(start) - level = L L^T the pencil's eigenvalues are those of
        L^-1 W L^-T.  numpy.linalg.LinAlgError if H(start) - level is not
        positive definite (a level at or below it).
        """
        A = self._reduced(start)
        A[np.diag_indices_from(A)] -= level
        W = self._project(
            sum((end.get(pair) - start.get(pair)) * V for pair, V in self.potentials.items())
        )
        Linv = _lower_inverse(np.linalg.cholesky(A))
        mu = np.linalg.eigvalsh(Linv @ W @ Linv.T)[-1]
        return float(1.0 / mu) if mu > 0 else math.inf


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular L, halved recursively down to 48 rows.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: the off-diagonal
    work is matrix products, where a dense inverse or solve of L would pay
    a full LU factorization.
    """
    n = L.shape[0]
    if n <= 48:
        return np.linalg.inv(L)
    h = n // 2
    Ai, Ci = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = Ai, Ci
    out[h:, :h] = -(Ci @ (L[h:, :h] @ Ai))
    return out


def hamiltonian_matrices(model: ModelSpec, basis: GaussianBasis) -> HamiltonianMatrices:
    """Kinetic, overlap and pair-potential matrices plus the spectral-floor Gram reduction.

    None of them depends on the couplings, so a coupling scan or path builds
    them once and pays one reduced eigensolve per point.  They are filled one
    block of rows at a time (_row_blocks), every element of a block from the
    block's pair forms: beside the N x N outputs only one block is held, a
    well's quadrature density included.
    """
    n = basis.size
    wells = {pair: _potential_elements(model, pair) for pair in model.active_pairs()}
    kinetic, S = np.empty((n, n)), np.empty((n, n))
    potentials = {pair: np.empty((n, n)) for pair in wells}
    cols = np.arange(n)
    for rows in _row_blocks(n, max((width for _, width in wells.values()), default=1)):
        i = rows[:, None]
        forms = _pair_forms(basis, i, cols)
        kinetic[rows] = _kinetic(basis, i, cols, forms)
        for pair, (elements, _) in wells.items():
            potentials[pair][rows] = elements(forms)
        S[rows] = forms.overlap
    norm = 1.0 / np.sqrt(np.diag(S))
    S *= np.outer(norm, norm)
    if not np.all(np.isfinite(S)):
        raise IllConditionedBasisError("non-finite matrix elements")
    vals, vecs = np.linalg.eigh(S)
    # S has unit diagonal, so vals[-1] >= 1 and the top direction is always kept
    keep = vals > _GRAM_FLOOR * vals[-1]
    return HamiltonianMatrices(
        kinetic=kinetic,
        potentials=potentials,
        norm=norm,
        gram=S,
        reduction=vecs[:, keep] / np.sqrt(vals[keep])[None, :],
    )


def solve_ground(model: ModelSpec, basis: GaussianBasis) -> GroundState:
    """Generalized symmetric eigensolve with spectral-floor Gram regularization."""
    return hamiltonian_matrices(model, basis).ground(model.couplings)


def hvz_bottom(model: ModelSpec) -> float:
    """Bottom of the essential spectrum: the lowest pair level, or zero.

    A pair whose well is non-negative with coupling^2 * bs_hs2() < 1 has no
    level (PotentialSpec.bs_hs2), so it is not shot.
    """
    bottom = 0.0
    for pair in model.active_pairs():
        pot, coupling = model.scaled_potential(pair), model.couplings.get(pair)
        if pot.is_nonnegative() and coupling**2 * pot.bs_hs2() < 1.0:
            continue
        e0 = twobody.shooting_ground_energy(pot, coupling)
        if e0 is not None:
            bottom = min(bottom, e0)
    return bottom


# ---------------------------------------------------------------------------
# localization probability

# A pair Gaussian with beta_min R^2 >= 50 keeps all but
# e^-50 (1 + 50 + 50^2/2) < 3e-19 of its mass inside the ball (the isotropic
# 6D tail at beta_min bounds the anisotropic one), so it takes the closed form.
_INTERIOR = 50.0
# Gauss-Legendre nodes per hyperradial panel; panels span a ratio of at most 3.
_NODES_PER_PANEL = 20
# Distinct ball keys per _ball_kernel call, which holds about two
# _CHUNK x n_rho arrays (n_rho, the hyperradial nodes, is 180 on the
# localization bases): that scratch, not N, sets the ball's peak beside its
# output.
_CHUNK = 2048
# Rounding allowance of P(R) in units of float64 eps * |c|^T Ball |c|.  A ball
# entry is within ~20 eps (4.6e-15 measured) of a converged reference on its
# own key.  The keys of elongated cross-frame pairs differ from the
# eigenvalues of their rotated 2x2 forms, which S, K and V use, by the forms'
# det cancellation (entries up to 1.2e-12 apart), but those pairs weigh so
# little that P(R) of a bound ground state moves by at most 2 ulp.  The
# quadratic form adds ~sqrt(N) eps; 1024 covers both up to N ~ 1e5.
# Normalization defects of converged ground states stay below 1% of it.
_ROUNDING_ULPS = 1024


# Below w = _SERIES_MAX, I_1(w)/w = sum_k u^k / (2 k! (k+1)!) with u = w^2/4
# (DLMF 10.25.2): all terms positive, and the first omitted one is below 2^-56
# of the sum at w = _SERIES_MAX.  From there up, _i1e: Cephes' i1e (exact
# through w ~ 1e20) in numpy, bit for bit.
_SERIES_MAX = 2.0
_SERIES = tuple(1.0 / (2.0 * math.factorial(k) * math.factorial(k + 1)) for k in range(12))

# Chebyshev coefficients of Cephes' i1e (S. L. Moshier, Methods and Programs
# for Mathematical Functions, 1989), as scipy.special compiles them:
# exp(-z) I_1(z) / z on [0, 8] in t = z/2 - 2, and exp(-z) I_1(z) sqrt(z) on
# (8, inf) in t = 32/z - 2.
_I1E_A = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16,
    -1.1055969477353862e-15, 7.600684294735408e-15, -5.042185504727912e-14,
    3.223793365945575e-13, -1.9839743977649436e-12, 1.1736186298890901e-11,
    -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07,
    -8.568720264695455e-07, 3.4702513081376785e-06, -1.3273163656039436e-05,
    4.781565107550054e-05, -0.00016176081582589674, 0.0005122859561685758,
    -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471,
    -0.17641651835783406, 0.25258718644363365,
)
_I1E_B = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17,
    -3.209525921993424e-17, 2.96262899764595e-16, 3.3082023109209285e-16,
    -1.8803547755107825e-15, -3.8144030724370075e-15, 1.0420276984128802e-14,
    4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11,
    3.2526035830154884e-11, -1.8974958123505413e-11, -5.589743462196584e-10,
    -3.835380385964237e-09, -2.6314688468895196e-08, -2.512236237870209e-07,
    -3.882564808877691e-06, -0.00011058893876262371, -0.009761097491361469,
    0.7785762350182801,
)

def _chbevl(t: np.ndarray, coeffs: tuple) -> np.ndarray:
    """Cephes chbevl: the Chebyshev series at t by Clenshaw's steps, in Cephes' order."""
    b0, b1, b2 = np.full_like(t, coeffs[0]), np.zeros_like(t), np.empty_like(t)
    for c in coeffs[1:]:
        b2, b1, b0 = b1, b0, b2
        np.multiply(t, b1, out=b0)
        b0 -= b2
        b0 += c
    b0 -= b2
    b0 *= 0.5
    return b0


def _i1e(z: np.ndarray, out: np.ndarray) -> None:
    """out = exp(-z) I_1(z) for 1-D z >= 0, bit-equal to scipy.special.i1e."""
    for s in range(0, z.size, _BLOCK):
        zb, ob = z[s : s + _BLOCK], out[s : s + _BLOCK]
        small = zb <= 8.0
        if small.any():
            x = zb[small]
            ob[small] = _chbevl(x * 0.5 - 2.0, _I1E_A) * x
        if not small.all():
            x = zb[~small]
            ob[~small] = _chbevl(32.0 / x - 2.0, _I1E_B) / np.sqrt(x)


def _series_kernel(gap, beta_min, rho2, out):
    """out = exp(-(beta_min + gap) rho2) * I_1(w)/w by the power series, w = gap rho2."""
    u = gap * rho2
    u *= u
    u *= 0.25
    out[...] = _SERIES[-1]
    for c in _SERIES[-2::-1]:
        out *= u
        out += c
    np.multiply(-(beta_min + gap), rho2, out=u)
    out *= np.exp(u, out=u)


def _i1e_kernel(gap, beta_min, rho2, out):
    """out = exp(-beta_min rho2) * [exp(-w) I_1(w)/w] by _i1e, w = gap rho2 > 0."""
    w = gap * rho2
    _i1e(w.reshape(-1), out.reshape(-1, copy=False))
    out /= w
    np.multiply(-beta_min, rho2, out=w)
    out *= np.exp(w, out=w)


def _ball_kernel(gap: np.ndarray, beta_min: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """exp(-beta_min rho2) * exp(-w) I_1(w)/w at w = gap rho2 >= 0, keys x nodes.

    gap and beta_min are 1-D arrays of keys, rho2 the ascending squared
    nodes.  An entry takes the series when gap * rho2 < _SERIES_MAX in
    floating point and i1e otherwise, whatever the other keys.  That product
    is monotone in gap and in rho2, so the nodes split into three bands:
    series for every key up to where the largest gap reaches _SERIES_MAX,
    i1e for every key from where the smallest does, and an elementwise
    choice between.  Keys sorted by gap keep the middle band narrow; any
    order gives the same entries.  The work runs node-major, so that each
    band is one contiguous block; the result is copied back to key-major
    order, in which the quadrature sums of an unchanged row keep their bits.
    """
    out = np.empty((rho2.size, gap.size))
    r = rho2[:, None]
    lo = np.searchsorted(gap.max() * rho2, _SERIES_MAX)
    hi = np.searchsorted(gap.min() * rho2, _SERIES_MAX)
    _series_kernel(gap, beta_min, r[:lo], out[:lo])
    _i1e_kernel(gap, beta_min, r[hi:], out[hi:])
    if hi > lo:
        g, b, x = np.broadcast_arrays(gap, beta_min, r[lo:hi])
        series = g * x < _SERIES_MAX
        mid = out[lo:hi]
        for kernel, sel in ((_series_kernel, series), (_i1e_kernel, ~series)):
            part = np.empty(np.count_nonzero(sel))
            kernel(g[sel], b[sel], x[sel], part)
            mid[sel] = part
    return np.ascontiguousarray(out.T)


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


def pair_keys(forms: PairForms, i: np.ndarray, j: np.ndarray,
              frames: Optional[Frames] = None):
    """(beta_min, gap, beta_max) of the pair forms of functions i and j, 1-D index arrays.

    beta_min <= beta_max are the eigenvalues of a form and gap their half
    difference.  A pair of two functions with a frame takes them from its
    frame content (Frames.keys); any other pair from its 2x2 form.
    """
    ba, bb, bc = forms.Ba, forms.Bb, forms.Bc2
    gap = np.sqrt(0.25 * (ba - bb) ** 2 + bc**2)
    beta_max = 0.5 * (ba + bb) + gap
    beta_min = forms.det / beta_max  # avoids the tr - gap cancellation
    if frames is not None:
        both = np.flatnonzero((frames.index[i] >= 0) & (frames.index[j] >= 0))
        beta_min[both], gap[both], beta_max[both] = frames.keys(i[both], j[both])
    return beta_min, gap, beta_max


def _below_interior(beta_min: np.ndarray, r: np.ndarray) -> np.ndarray:
    """beta_min * r^2 < _INTERIOR, radii x pairs, with no product that can overflow.

    r^2 is infinite from r = 2^512 on.  When both factors are at least 1,
    clamping each at _INTERIOR keeps the verdict (one above it fails either
    way); otherwise the product is below the larger factor.  So every radius
    with a finite square gets the verdict of the plain product, bit for bit.
    """
    r2 = np.square(r, out=np.full(r.shape, np.inf), where=r < 2.0**512)
    b = np.where(r2 >= 1.0, np.minimum(beta_min, _INTERIOR), beta_min)
    r2 = np.where(beta_min >= 1.0, np.minimum(r2, _INTERIOR), r2)
    return b * r2 < _INTERIOR


def ball_overlap(basis: GaussianBasis, R):
    """Integral of exp(-xi^T B xi) over the 6D ball |xi| <= R, for the pair forms B of a basis.

    Diagonalizing each 2x2 form gives eigenvalues beta_min <= beta_max with
    half-gap gap; the angular part integrates to a Bessel I_1 weight and one
    hyperradial integral remains:
    2 pi^3 int_0^R rho^5 e^{-beta_min rho^2} [e^{-gap rho^2} I_1(gap rho^2)/(gap rho^2)] drho.

    R is a list of radii, and the result one N x N matrix per radius.  The
    matrix is symmetric, so only the upper-triangle pairs are evaluated, one
    row block at a time (_row_blocks) straight from the basis: their forms,
    pair_keys (from the frames of a frames-mode basis, whose equal content
    is bit-equal whatever the frames) and the interior test.  A pair whose
    Gaussian lies wholly inside the ball (beta_min R^2 >= 50) takes the
    closed-form overlap pi^3/det^{3/2} of its form, as the Gram matrix does.
    All radii of the others come from one hyperradial pass: one cumulative
    quadrature with a panel edge at every radius.  The ball is
    O(6)-invariant, so an entry depends only on (beta_min, gap): the
    quadrature runs once per bit-distinct key, through _ball_kernel in
    chunks sorted by gap, and is scattered back to every pair that shares
    it.  Beside the output the pass holds one block and one key per
    quadrature pair.
    """
    r = np.atleast_1d(np.asarray(R, dtype=float))[:, None]
    n = basis.size
    out = np.empty((r.shape[0], n, n))
    cols = np.arange(n)
    parts = []  # per block: rows, columns, keys and radii of its quadrature pairs
    beta_top = 0.0
    for rows in _row_blocks(n):
        i, j = np.nonzero(cols >= rows[:, None])
        i += rows[0]
        forms = _pair_forms(basis, i, j)
        beta_min, gap, beta_max = pair_keys(forms, i, j, basis.frames)
        vals = np.where(r > 0, forms.overlap, 0.0)
        out[:, i, j] = vals
        out[:, j, i] = vals
        quad = (r > 0) & _below_interior(beta_min, r)  # radii x pairs
        pairs = np.flatnonzero(quad.any(axis=0))
        if pairs.size:
            # (gap, beta_min) as one complex key: it compares as the pair and
            # sorts by gap, so each chunk spans a narrow band of gaps
            parts.append((i[pairs], j[pairs], gap[pairs] + 1j * beta_min[pairs], quad[:, pairs]))
            beta_top = max(beta_top, float(np.max(beta_max[pairs])))
    if parts:
        i, j, keys, quad = (np.concatenate(p, axis=-1) for p in zip(*parts))
        del parts
        cuts = np.unique(r[quad.any(axis=1), 0])
        rho, weights = _hyperradial_rule(beta_top, cuts)
        rho2 = rho * rho
        keys, inverse = np.unique(keys, return_inverse=True)
        acc = np.empty((keys.size, cuts.size))
        for s in range(0, keys.size, _CHUNK):
            k = keys[s : s + _CHUNK]
            acc[s : s + k.size] = _ball_kernel(k.real, k.imag, rho2) @ weights
        col = np.minimum(np.searchsorted(cuts, r[:, 0]), cuts.size - 1)
        for s in range(0, i.size, _BLOCK):
            b = slice(s, s + _BLOCK)
            vals = np.where(quad[:, b], 2.0 * np.pi**3 * acc[inverse[b]][:, col].T,
                            out[:, i[b], j[b]])
            out[:, i[b], j[b]] = vals
            out[:, j[b], i[b]] = vals
    return out


def ball_matrices(basis: GaussianBasis, R):
    """ball_overlap of the basis, in the unit-diagonal normalization of state coefficients.

    It depends on (basis, radii) only: build it once, then P(R) per state.
    The output is normalized in place.
    """
    ball = ball_overlap(basis, R)
    diag = np.arange(basis.size)
    snorm = 1.0 / np.sqrt(_pair_forms(basis, diag, diag).overlap)
    ball *= np.outer(snorm, snorm)
    return ball


def probability_inside(ball: np.ndarray, coefficients: np.ndarray):
    """P(R): probability mass of the normalized state inside the 6D ball |xi| <= R.

    ball is ball_matrices(basis, radii), coefficients a GroundState's on that
    basis; the result holds one probability per radius.  P is clamped into
    [0, 1] only within the rounding estimate delta of the quadratic form;
    beyond it IllConditionedBasisError is raised.
    """
    c, ac = coefficients, np.abs(coefficients)
    p = ball @ c @ c
    # ball entries integrate positive Gaussians, so |Ball| = Ball
    delta = _ROUNDING_ULPS * np.finfo(float).eps * (ball @ ac @ ac)
    bad = (p < -delta) | (p > 1.0 + delta)
    if np.any(bad):
        raise IllConditionedBasisError(
            f"P(R) = {p[bad]} lies outside [0, 1] beyond its rounding estimate {delta[bad]}"
        )
    return np.clip(p, 0.0, 1.0)
