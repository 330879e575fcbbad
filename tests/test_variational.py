import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, i1e, ive

from fewbody import twobody as tb
from fewbody import variational as vr
from fewbody.cli import EXIT_NUMERIC, main
from fewbody.model import (
    CouplingConfig, MassSet, ModelSpec, PotentialSpec, _gauss_legendre_panels,
)
from tests.conftest import (
    EXP_LAMBDA_STAR,
    GAUSS_LAMBDA_STAR,
    SW_LAMBDA_STAR,
    bound_state_count,
    make_model,
    relabelled_models,
)
from tests.test_cli import FULL


@pytest.fixture(scope="module")
def small_basis(equal_masses):
    return vr.build_basis(
        vr.BasisSpec(0.3, 10.0, 7, 0.3, 60.0, 8, "frames"), equal_masses
    )


@pytest.fixture(scope="module")
def wide_basis(equal_masses):
    # outer scales out to 2000: at R = 1e4 some forms straddle the interior cut
    # with gap * R^2 above 1e8
    return vr.build_basis(
        vr.BasisSpec(0.25, 15.0, 5, 0.25, 2000.0, 7, "frames"), equal_masses
    )


class TestBasisBuild:
    def test_counting(self):
        spec = vr.BasisSpec(0.4, 12.0, 8, 0.4, 30.0, 8, (-0.6, 0.0, 0.6))
        basis = vr.build_basis(spec)
        assert basis.size == 192

    def test_seeded_reproducibility(self):
        spec = vr.BasisSpec(n_random=25, seed=99)
        b1, b2 = vr.build_basis(spec), vr.build_basis(spec)
        assert np.array_equal(b1.a, b2.a)
        assert np.array_equal(b1.b, b2.b)
        assert np.array_equal(b1.c, b2.c)

    def test_random_needs_seed(self):
        with pytest.raises(ValueError):
            vr.build_basis(vr.BasisSpec(n_random=5))

    def test_positive_definiteness_enforced(self):
        with pytest.raises(ValueError):
            vr.GaussianBasis(a=np.array([1.0]), b=np.array([1.0]), c=np.array([2.5]))

    def test_frames_mode_needs_masses(self):
        with pytest.raises(ValueError):
            vr.build_basis(vr.BasisSpec(correlations="frames"))


def whole_forms(basis):
    """The pair forms of every pair of functions as N x N matrices: the whole-matrix layout."""
    a, b, c = basis.a, basis.b, basis.c
    Ba = a[:, None] + a[None, :]
    Bb = b[:, None] + b[None, :]
    Bc2 = 0.5 * (c[:, None] + c[None, :])
    det = Ba * Bb - Bc2**2
    return vr.PairForms(Ba, Bb, Bc2, det, np.pi**3 / det**1.5)


def whole_kinetic(basis):
    """The kinetic matrix from whole_forms, with the elementwise formula of the library."""
    a, b, c = basis.a, basis.b, basis.c
    Ba, Bb, Bc2, det, S = whole_forms(basis)
    am, bm, cm2 = a[:, None], b[:, None], 0.5 * c[:, None]
    an, bn, cn2 = a[None, :], b[None, :], 0.5 * c[None, :]
    tr = (
        (am * Bb - cm2 * Bc2) * an
        + (-am * Bc2 + cm2 * Ba) * cn2
        + (cm2 * Bb - bm * Bc2) * cn2
        + (-cm2 * Bc2 + bm * Ba) * bn
    ) / det
    return 6.0 * tr * S


def whole_pair_width(basis, coeffs):
    """Inverse variance c_B of the pair-separation marginal |P x + Q y|, N x N."""
    P, Q = coeffs
    Ba, Bb, Bc2, det, _ = whole_forms(basis)
    return 1.0 / ((P * P * Bb - 2.0 * P * Q * Bc2 + Q * Q * Ba) / det)


def whole_potential(basis, model, pair):
    """V_pair without its coupling, every non-Gaussian well on one N x N x n_r density."""
    S = whole_forms(basis).overlap
    pot = model.potential(pair)
    cb = whole_pair_width(basis, vr.pair_separation_coeffs(model.masses, pair))
    if pot.kind == "gaussian":
        return S * pot.depth * (cb / (cb + 1.0 / pot.range**2)) ** 1.5
    quad = vr.Quadrature.for_potential(pot)
    w, r = quad.weights, quad.nodes
    integrand = r * r * pot.value(r)
    dens = np.exp(-cb[..., None] * r[None, None, :] ** 2)
    radial = 4.0 * np.pi * np.einsum("mnr,r->mn", dens, w * integrand)
    return S * (cb / np.pi) ** 1.5 * radial


def raw_elements(model, basis):
    """(S, T, V_12) of a one-function basis, from hamiltonian_matrices."""
    hm = vr.hamiltonian_matrices(model, basis)
    return 1.0 / hm.norm[0] ** 2, hm.kinetic[0, 0], hm.potentials["12"][0, 0]


class TestMatrixElements:
    def test_kinetic_against_single_gaussian(self, equal_masses, gaussian_well):
        b = vr.GaussianBasis(a=np.array([0.7]), b=np.array([0.4]), c=np.array([0.0]))
        S, T, _ = raw_elements(make_model(equal_masses, gaussian_well, (1, 1, 1)), b)
        assert np.isclose(T / S, 3 * 0.7 + 3 * 0.4, rtol=1e-12)

    def test_overlap_closed_form(self, equal_masses, gaussian_well):
        b = vr.GaussianBasis(a=np.array([0.5]), b=np.array([0.5]), c=np.array([0.3]))
        S, _, _ = raw_elements(make_model(equal_masses, gaussian_well, (1, 1, 1)), b)
        det = 1.0 * 1.0 - 0.3**2
        assert np.isclose(S, np.pi**3 / det**1.5, rtol=1e-13)

    def test_gaussian_potential_element(self, equal_masses, gaussian_well):
        model = make_model(equal_masses, gaussian_well, (1, 1, 1))
        b = vr.GaussianBasis(a=np.array([0.7]), b=np.array([0.7]), c=np.array([0.0]))
        hm = vr.hamiltonian_matrices(model, b)
        S, _, V = raw_elements(model, b)
        assert np.isclose(V / S, (1.4 / 2.4) ** 1.5, rtol=1e-12)
        # equal masses and equal widths: all pair separations equidistributed
        assert np.isclose(V, hm.potentials["23"][0, 0], rtol=1e-12)

    def test_square_well_element_against_erf(self, equal_masses, square_well):
        model = make_model(equal_masses, square_well, (1, 1, 1))
        b = vr.GaussianBasis(a=np.array([0.9]), b=np.array([0.6]), c=np.array([0.2]))
        S, _, V = raw_elements(model, b)
        cb = whole_pair_width(b, vr.pair_separation_coeffs(equal_masses, "12"))[0, 0]
        R = square_well.range
        exact = erf(math.sqrt(cb) * R) - 2 * math.sqrt(cb / np.pi) * R * math.exp(-cb * R * R)
        assert np.isclose(V / S, exact, rtol=1e-8)

    def test_pair_forms_built_once(self, equal_masses, gaussian_well, square_well, monkeypatch):
        # one build per block, shared by every element of it: the row blocks
        # of hamiltonian_matrices cover each row once, those of ball_overlap
        # each upper-triangle pair once (plus one build of the diagonal for
        # the normalization), with the bits of the whole-matrix evaluation
        basis = frames_basis(equal_masses, n_random=4)
        n = basis.size
        model = ModelSpec(equal_masses, gaussian_well, square_well, gaussian_well,
                          CouplingConfig(1.0, 1.0, 1.0))
        # one row per block with the square well's 64 nodes, seven per ball block
        monkeypatch.setattr(vr, "_BLOCK", 7 * n)
        builds = []
        build = vr._pair_forms
        monkeypatch.setattr(vr, "_pair_forms",
                            lambda b, i, j: builds.append((b, i, j)) or build(b, i, j))
        hm = vr.hamiltonian_matrices(model, basis)
        assert len(builds) == n and all(b is basis for b, _, _ in builds)
        rows = np.concatenate([i[:, 0] for _, i, _ in builds])
        np.testing.assert_array_equal(rows, np.arange(n))
        assert all(np.array_equal(j, np.arange(n)) for _, _, j in builds)
        np.testing.assert_array_equal(hm.kinetic, whole_kinetic(basis))
        assert set(hm.potentials) == set(vr.PAIRS)
        for pair, V in hm.potentials.items():
            np.testing.assert_array_equal(V, whole_potential(basis, model, pair))

        builds.clear()
        vr.ball_matrices(basis, [10.0])
        *blocks, (_, d, e) = builds
        assert np.array_equal(d, np.arange(n)) and np.array_equal(e, np.arange(n))
        pairs = np.concatenate([np.stack([i, j]) for _, i, j in blocks], axis=1)
        np.testing.assert_array_equal(pairs, np.stack(np.triu_indices(n)))


WELLS = {
    "gaussian": PotentialSpec("gaussian"),
    "exponential": PotentialSpec("exponential"),
    "square_well": PotentialSpec("square_well"),
    "tabulated": PotentialSpec("tabulated", table=((0.5, 2.0), (1.0, 0.5), (1.5, 1.2), (3.0, 0.0))),
}


def first_functions(basis, n):
    """The first n functions of a frames-mode basis, with their frames."""
    f = basis.frames
    return vr.GaussianBasis(a=basis.a[:n], b=basis.b[:n], c=basis.c[:n],
                            frames=vr.Frames(f.masses, f.index[:n], f.widths[:n]))


def edge_size(edge, width):
    """A basis size whose row blocks of width numbers per entry lie at the given block edge.

    below: all rows in one block with room to spare; exact: one block of
    exactly n rows; ragged: blocks of a size that does not divide n.
    """
    side = math.isqrt(vr._BLOCK // width)
    n = {"below": side * 3 // 4, "exact": side, "ragged": side * 5 // 4 + 3}[edge]
    sizes = [rows.size for rows in vr._row_blocks(n, width)]
    assert {"below": len(sizes) == 1 and vr._BLOCK // (n * width) > n,
            "exact": sizes == [n] and vr._BLOCK // (n * width) == n,
            "ragged": len(sizes) > 1 and n % sizes[0] != 0}[edge]
    return n


class TestBlockAssembly:
    """Row blocks give the bits of the whole-matrix evaluation, at every block edge."""

    @pytest.fixture(scope="class")
    def basis(self):
        # frame and random functions at unequal masses: 184 of them
        basis = frames_basis(MassSet(1.0, 0.7, 1.6), n_random=60)
        assert basis.size >= 170
        return basis

    @pytest.mark.parametrize("edge", ["below", "exact", "ragged"])
    @pytest.mark.parametrize("kind", WELLS)
    def test_hamiltonian_matrices(self, basis, kind, edge):
        pot = WELLS[kind]
        width = 1 if kind == "gaussian" else vr.Quadrature.for_potential(pot).nodes.size
        basis = first_functions(basis, edge_size(edge, width))
        model = ModelSpec(basis.frames.masses, pot, pot, pot, CouplingConfig(1.0, 0.8, 0.6))
        hm = vr.hamiltonian_matrices(model, basis)
        np.testing.assert_array_equal(hm.kinetic, whole_kinetic(basis))
        assert set(hm.potentials) == set(vr.PAIRS)
        for pair, V in hm.potentials.items():
            np.testing.assert_array_equal(V, whole_potential(basis, model, pair))
        S = whole_forms(basis).overlap
        norm = 1.0 / np.sqrt(np.diag(S))
        np.testing.assert_array_equal(hm.norm, norm)
        np.testing.assert_array_equal(hm.gram, S * np.outer(norm, norm))

    @pytest.mark.parametrize("edge", ["below", "exact", "ragged"])
    @pytest.mark.parametrize("keyed", ["frames", "frameless"])
    def test_ball_matrices(self, basis, keyed, edge):
        basis = first_functions(basis, edge_size(edge, 1))
        if keyed == "frameless":
            basis = frameless(basis)
        np.testing.assert_array_equal(vr.ball_matrices(basis, RADII),
                                      whole_ball_matrices(basis, RADII))

    def test_memory_is_outputs_plus_one_block(self, monkeypatch):
        # with one square-well pair the whole-matrix layout held an N x N x 64
        # density (64 N^2 numbers) beside five N x N pair forms; the blocks
        # hold the outputs, the Gram eigenvectors and one block of pairs.  The
        # Bessel kernel's scratch, about two _CHUNK x n_rho arrays whatever N,
        # is kept small here.
        masses = MassSet(1.0, 1.0, 1.0)
        basis = vr.build_basis(vr.BasisSpec(0.25, 15.0, 6, 0.25, 600.0, 10, "frames",
                                            n_random=20, seed=3), masses)
        model = ModelSpec(masses, WELLS["gaussian"], WELLS["gaussian"], WELLS["square_well"],
                          CouplingConfig(2.0, 2.0, 2.0))
        monkeypatch.setattr(vr, "_CHUNK", 64)
        n = basis.size
        assert 190 <= n <= 210
        tracemalloc.start()
        try:
            hm = vr.hamiltonian_matrices(model, basis)
            ball = vr.ball_matrices(basis, [10.0, 30.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(m.nbytes for m in (hm.kinetic, *hm.potentials.values(), hm.norm, hm.gram,
                                         hm.reduction, ball))
        assert peak <= outputs + 4 * n * n * 8 + 32 * vr._BLOCK * 8


class TestSolveGround:
    def test_free_system_nonnegative(self, equal_masses, gaussian_well, small_basis):
        m = make_model(equal_masses, gaussian_well, (0.0, 0.0, 0.0))
        gs = vr.solve_ground(m, small_basis)
        assert gs.energy >= -1e-10

    def test_normalization(self, gauss_model_factory, small_basis):
        gs = vr.solve_ground(gauss_model_factory(1.0), small_basis)
        norm = gs.coefficients @ gs.gram @ gs.coefficients
        assert abs(norm - 1.0) < 1e-10

    def test_energy_monotone_in_coupling(self, gauss_model_factory, small_basis):
        energies = [
            vr.solve_ground(gauss_model_factory(s), small_basis).energy
            for s in (0.85, 0.95, 1.05)
        ]
        assert energies[0] > energies[1] > energies[2]

    def test_variational_monotone_in_basis(self, equal_masses, gauss_model_factory):
        # strictly nested bases: the enlarged span can never raise the minimum
        m = gauss_model_factory(1.0)
        small = vr.build_basis(vr.BasisSpec(0.4, 8.0, 5, 0.4, 30.0, 6, "frames"), equal_masses)
        extra = vr.build_basis(vr.BasisSpec(0.3, 2.0, 3, 0.3, 5.0, 3, (0.0,)))
        big = small.merged(extra)
        e_small = vr.solve_ground(m, small).energy
        e_big = vr.solve_ground(m, big).energy
        assert e_big <= e_small + 1e-12

    def test_tail_convergence_near_threshold(self, equal_masses, gauss_model_factory):
        # near the threshold, extending the outer-scale ladder another decade
        # must barely move the energy
        m = gauss_model_factory(0.9)
        b3 = vr.build_basis(vr.BasisSpec(0.25, 15.0, 8, 0.25, 1e3, 14, "frames"), equal_masses)
        tail = vr.build_basis(
            vr.BasisSpec(0.25, 15.0, 8, 2e3, 1e4, 3, "frames"), equal_masses
        )
        e3 = vr.solve_ground(m, b3).energy
        e4 = vr.solve_ground(m, b3.merged(tail)).energy
        assert e4 <= e3 + 1e-12
        assert abs(e4 - e3) <= 1e-4 * abs(e3)

    def test_binds_above_bs_threshold(self, gauss_model_factory, small_basis):
        # the coupled-channel solver puts the critical scale near 0.794;
        # 20% above it the system must be variationally bound
        gs = vr.solve_ground(gauss_model_factory(0.794 * 1.2), small_basis)
        assert gs.energy < -1e-3

    def test_relabeling_symmetry(self, equal_masses, gaussian_well, small_basis):
        # equal masses on a frames basis: every assignment of three couplings
        # to the pairs gives the same spectrum
        lam = GAUSS_LAMBDA_STAR
        energies = [
            vr.solve_ground(make_model(equal_masses, gaussian_well, perm), small_basis).energy
            for perm in itertools.permutations((lam, 0.8 * lam, 0.6 * lam))
        ]
        assert len(energies) == 6
        for e in energies[1:]:
            assert abs(e - energies[0]) < 1e-8 * max(abs(energies[0]), 1e-10)

    @pytest.mark.parametrize("masses", [(1.0, 0.7, 1.6), (1.0, 1.0, 2.0)],
                             ids=["unequal", "two-equal"])
    def test_relabeling_unequal_masses(self, masses):
        # relabel the particles: masses, wells and couplings move together; the
        # frames basis (no random part) spans the same functions in every
        # labelling, so e_gr and P(R) agree to rounding (largest measured
        # spread over the six labellings: 3.3e-14 in e_gr, 9.1e-14 in P(R))
        spec = vr.BasisSpec(0.3, 10.0, 7, 0.3, 60.0, 8, "frames")
        radii = np.array([2.0, 5.0, 10.0, 30.0])
        results = []
        for model in relabelled_models(masses):
            basis = vr.build_basis(spec, model.masses)
            gs = vr.solve_ground(model, basis)
            results.append([gs.energy, *p_of_state(basis, gs, radii)])
        results = np.array(results)
        assert results[0, 0] < 0 and np.all(np.diff(results[0, 1:]) > 0)
        np.testing.assert_allclose(results, np.tile(results[0], (6, 1)), rtol=1e-12, atol=0.0)

    def test_scaled_matrices_equal_rescaled_model(self, equal_masses, gaussian_well, small_basis):
        # H = K - sum (s lam_p) V_p in the same order as a fresh solve: bit for bit
        lam = GAUSS_LAMBDA_STAR
        m = make_model(equal_masses, gaussian_well, (0.9 * lam, 0.7 * lam, 0.0))
        hm = vr.hamiltonian_matrices(m, small_basis)
        assert set(hm.potentials) == {"12", "13"}
        for s in (0.5, 1.0, 1.3):
            gs = hm.ground(m.couplings.scaled(s))
            ref = vr.solve_ground(m.with_couplings(m.couplings.scaled(s)), small_basis)
            assert gs.energy == ref.energy
            assert np.array_equal(gs.coefficients, ref.coefficients)

    def test_non_finite_elements_raise(self, gauss_model_factory):
        # widths 1e-110: det^1.5 underflows to zero, so the overlap pi^3/det^1.5 is inf
        basis = vr.GaussianBasis(a=np.array([1e-110, 1.0]), b=np.array([1e-110, 1.0]),
                                 c=np.zeros(2))
        with np.errstate(all="ignore"), pytest.raises(vr.IllConditionedBasisError,
                                                      match="non-finite"):
            vr.solve_ground(gauss_model_factory(1.0), basis)


class TestCrossing:
    # t* = 1/mu_max of the pencil W phi = mu (H(start) - level) phi, on the
    # 166-function basis: the Cholesky reduction recurses past 48 rows.  The
    # gap of the level below the ground at start bounds the conditioning of
    # H(start) - level; at a gap of 1e-3 the two routes differ by ~1e-12.
    @pytest.fixture(scope="class")
    def hm(self, equal_masses, gaussian_well, small_basis):
        lam = GAUSS_LAMBDA_STAR
        m = make_model(equal_masses, gaussian_well, (0.9 * lam, 0.7 * lam, 0.0))
        return m.couplings, vr.hamiltonian_matrices(m, small_basis)

    @pytest.mark.parametrize("gap", [0.5, 0.05])
    def test_matches_scipy_pencil(self, hm, gap):
        import scipy.linalg

        couplings, hm = hm
        start, end = couplings.scaled(0.5), couplings.scaled(1.5)
        level = hm.ground(start).energy - gap
        A = hm._reduced(start)
        A[np.diag_indices_from(A)] -= level
        W = hm._project(sum((end.get(p) - start.get(p)) * V for p, V in hm.potentials.items()))
        n = len(A)
        mu = scipy.linalg.eigh(W, A, subset_by_index=[n - 1, n - 1], eigvals_only=True)[0]
        assert hm.crossing(start, end, level) == pytest.approx(1.0 / mu, rel=1e-12, abs=0)

    def test_level_at_or_above_the_ground_raises(self, hm):
        # H(start) - level is then not positive definite
        couplings, hm = hm
        start = couplings.scaled(0.5)
        with pytest.raises(np.linalg.LinAlgError):
            hm.crossing(start, couplings, hm.ground(start).energy + 1e-3)

    def test_a_path_that_stands_still_never_crosses(self, hm):
        # W = 0, so mu_max = 0
        couplings, hm = hm
        assert hm.crossing(couplings, couplings, hm.ground(couplings).energy - 0.1) == math.inf


@pytest.fixture
def shot(monkeypatch):
    """The couplings shooting_ground_energy is called at, in call order."""
    calls, shoot = [], tb.shooting_ground_energy

    def recording(pot, coupling):
        calls.append(coupling)
        return shoot(pot, coupling)

    monkeypatch.setattr(tb, "shooting_ground_energy", recording)
    return calls


class TestHvzBottom:
    def test_all_unbound(self, gauss_model_factory):
        assert vr.hvz_bottom(gauss_model_factory(0.8)) == 0.0

    def test_one_bound_pair(self, equal_masses, gaussian_well):
        lam = 1.3 * GAUSS_LAMBDA_STAR
        m = make_model(equal_masses, gaussian_well, (lam, 0.0, 0.0))
        e12 = tb.shooting_ground_energy(gaussian_well, lam)
        assert np.isclose(vr.hvz_bottom(m), e12, rtol=1e-10)

    def test_two_bound_pairs_takes_lower(self, equal_masses, gaussian_well):
        lam_a, lam_b = 1.3 * GAUSS_LAMBDA_STAR, 1.6 * GAUSS_LAMBDA_STAR
        m = make_model(equal_masses, gaussian_well, (lam_a, lam_b, 0.0))
        e_b = tb.shooting_ground_energy(gaussian_well, lam_b)
        assert np.isclose(vr.hvz_bottom(m), e_b, rtol=1e-10)

    # the Hilbert-Schmidt bound skips the shooting below 0.9863, 0.9781 and
    # 0.9927 of lam* (Gaussian, exponential, square well); every value stays
    @pytest.mark.parametrize("pot", [
        PotentialSpec("gaussian"), PotentialSpec("exponential"), PotentialSpec("square_well"),
        PotentialSpec("tabulated", table=((0.5, 2.0), (1.0, 0.5), (1.5, 1.2), (3.0, 0.0))),
    ], ids=lambda p: p.kind)
    @pytest.mark.parametrize("fraction", [0.97, 0.99, 0.995, 1.01])
    def test_equals_shooting_only(self, shot, equal_masses, pot, fraction):
        lam_star = {"gaussian": GAUSS_LAMBDA_STAR, "exponential": EXP_LAMBDA_STAR,
                    "square_well": SW_LAMBDA_STAR}.get(pot.kind)
        lam = fraction * (lam_star or tb.shooting_critical_coupling(pot))
        bottom = vr.hvz_bottom(make_model(equal_masses, pot, (lam, 0.0, 0.0)))
        assert bool(shot) == (lam**2 * pot.bs_hs2() >= 1.0)
        e0 = tb.shooting_ground_energy(pot, lam)
        assert (e0 is not None) == (fraction > 1.0)
        assert bottom == (0.0 if e0 is None else e0)

    def test_signed_table_shoots(self, shot, equal_masses):
        # the bound holds for V >= 0 only: a well with a repulsive part is shot
        pot = PotentialSpec("tabulated", table=((0.5, 1.0), (1.0, -0.2), (2.0, 0.0)))
        assert pot.bs_hs2() < 1.0
        assert vr.hvz_bottom(make_model(equal_masses, pot, (1.0, 0.0, 0.0))) == 0.0
        assert shot == [1.0]


class TestBoundStateCount:
    def test_no_couplings(self, equal_masses, gaussian_well, small_basis):
        m = make_model(equal_masses, gaussian_well, (0, 0, 0))
        assert bound_state_count(m, small_basis) == 0

    def test_single_weak_pair(self, equal_masses, gaussian_well, small_basis):
        m = make_model(equal_masses, gaussian_well, (0.5 * GAUSS_LAMBDA_STAR, 0, 0))
        assert bound_state_count(m, small_basis) == 0


def p_of_state(basis, gs, radii):
    """P(R) of one state at each radius: one ball build, one quadratic form."""
    return vr.probability_inside(vr.ball_matrices(basis, radii), gs.coefficients)


class TestLocalization:
    def test_limits(self, gauss_model_factory, small_basis):
        gs = vr.solve_ground(gauss_model_factory(1.0), small_basis)
        assert p_of_state(small_basis, gs, [0.0])[0] == 0.0
        assert abs(p_of_state(small_basis, gs, [1e6])[0] - 1.0) < 1e-8

    def test_deep_binding_compact(self, gauss_model_factory, small_basis):
        gs = vr.solve_ground(gauss_model_factory(1.3), small_basis)
        assert p_of_state(small_basis, gs, [5.0])[0] > 0.99

    def test_monotone_probe(self, gauss_model_factory, small_basis):
        gs = vr.solve_ground(gauss_model_factory(1.0), small_basis)
        p = p_of_state(small_basis, gs, [1.0, 2.0, 5.0, 10.0, 50.0])
        assert np.all(np.diff(p) >= -1e-9)
        assert np.all((p >= 0) & (p <= 1))

    def test_ball_overlap_isotropic_analytic(self):
        # equal widths: the ball integral collapses to an incomplete gamma
        beta = 0.7
        basis = vr.GaussianBasis(a=np.array([beta]), b=np.array([beta]), c=np.array([0.0]))
        val = vr.ball_overlap(basis, R=[2.0])[0, 0, 0]
        from scipy.special import gammainc

        exact = np.pi**3 / (2 * beta) ** 3 * gammainc(3, 2 * beta * 4.0)
        assert np.isclose(val, exact, rtol=1e-10)

    def test_ball_overlap_matches_overlap_at_infinity(self, small_basis):
        full = vr.ball_overlap(frameless(small_basis), R=[1e4])[0]
        S = whole_forms(small_basis).overlap
        sub = np.ix_(range(0, small_basis.size, 7), range(0, small_basis.size, 7))
        assert np.allclose(full[sub], S[sub], rtol=1e-6)


def reference_ball_overlap(Ba, Bb, Bc2, R, n_rho=320):
    """Per-radius ball overlap on an N x N x n_rho tensor, with scipy's ive.

    The kernel the one-pass ball_overlap replaced, kept as its reference:
    geometric panels capped at R, every form on every node.  Two changes make
    it converged: n_rho = 320 (at 160 its panels left 1e-8 errors at R = 1e4),
    and the w > 1e8 branch carries the next two terms of the asymptotic series
    (the leading term alone is off by 3/(8w)).
    """
    tr = 0.5 * (Ba + Bb)
    gap = np.sqrt(0.25 * (Ba - Bb) ** 2 + Bc2**2)
    det = Ba * Bb - Bc2**2
    beta_min = det / (tr + gap)
    lo = 0.05 / math.sqrt(float(np.max(tr + gap)))
    hi = min(6.0 / math.sqrt(float(np.min(beta_min))), R)
    lo = min(lo, 0.25 * hi)
    n_panels = max(4, int(math.ceil(math.log(hi / lo) / math.log(3.0))) + 1)
    edges = [0.0] + list(np.geomspace(lo, hi, n_panels))
    rho, wr, _ = _gauss_legendre_panels(edges, [max(8, n_rho // n_panels)] * n_panels)
    w = gap[..., None] * rho**2
    small, large = w < 1e-6, w > 1e8
    safe = np.where(small | large, 1.0, w)
    ratio = ive(1, safe) / safe
    wl = np.maximum(w, 1.0)
    asym = (1.0 - 3.0 / (8.0 * wl) - 15.0 / (128.0 * wl**2)) / np.sqrt(2.0 * np.pi * wl**3)
    ratio = np.where(large, asym, ratio)
    ratio = np.where(small, (0.5 + w * w / 16.0) * np.exp(-w), ratio)
    damp = np.exp(-beta_min[..., None] * rho**2)
    return 2.0 * np.pi**3 * np.einsum("...r,r->...", ratio * damp, wr * rho**5)


RADII = (0.5, 2.0, 10.0, 30.0, 1e4)


class TestBallOverlapReference:
    @pytest.mark.parametrize("basis_name", ["small_basis", "wide_basis"])
    def test_entries_match_reference(self, basis_name, request):
        basis = request.getfixturevalue(basis_name)
        Ba, Bb, Bc2, det, _ = whole_forms(basis)
        tr = 0.5 * (Ba + Bb)
        gap = np.sqrt(0.25 * (Ba - Bb) ** 2 + Bc2**2)
        beta_min = det / (tr + gap)
        interior = [beta_min * R**2 >= vr._INTERIOR for R in RADII]
        # both sides of the closed-form cut, and both Bessel regimes among the
        # forms that still take the quadrature
        assert any(m.any() for m in interior) and any((~m).any() for m in interior)
        assert np.any(gap == 0.0)
        if basis_name == "wide_basis":
            assert np.any(~interior[-1] & (gap * RADII[-1] ** 2 > 1e8))
        # the reference takes forms of any shape: the upper triangle suffices,
        # the mirror is checked by the symmetry and permutation tests
        iu = np.triu_indices(basis.size)
        for R, got in zip(RADII, vr.ball_overlap(frameless(basis), np.array(RADII))):
            ref = reference_ball_overlap(Ba[iu], Bb[iu], Bc2[iu], R)
            assert np.max(np.abs(got[iu] / ref - 1.0)) <= 1e-12, R

    def test_multi_radius_equals_per_radius(self, small_basis):
        basis = frameless(small_basis)
        radii = np.array([30.0, 0.5, 10.0, 2.0, 1e4])  # unsorted on purpose
        multi = vr.ball_overlap(basis, radii)
        assert multi.shape == (radii.size, small_basis.size, small_basis.size)
        for R, got in zip(radii, multi):
            single = vr.ball_overlap(basis, [R])
            assert single.shape == (1, small_basis.size, small_basis.size)
            single = single[0]
            np.testing.assert_allclose(got, single, rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(got, got.T)

    def test_bessel_kernel_exact_at_large_w(self):
        # i1e needs no asymptotic branch: it matches the series through 1e15
        w = np.geomspace(1e8, 1e15, 29)
        series = (1.0 - 3.0 / (8.0 * w) - 15.0 / (128.0 * w**2)) / np.sqrt(2.0 * np.pi * w**3)
        np.testing.assert_allclose(bessel_ratio_scaled(w), series, rtol=4e-16, atol=0.0)
        # the power series covers w = 0 and joins ive where the old 1e-6 switch was
        w = np.array([0.0, 9.9e-7, 1.01e-6])
        ref = np.array([0.5, *(ive(1, w[1:]) / w[1:])])
        np.testing.assert_allclose(bessel_ratio_scaled(w), ref, rtol=1e-15, atol=0.0)


class TestI1e:
    """The numpy port of Cephes' i1e against scipy.special.i1e, bit for bit."""

    @staticmethod
    def assert_bit_equal(z):
        got = np.empty_like(z)
        vr._i1e(z, got)
        np.testing.assert_array_equal(got.view(np.int64), i1e(z).view(np.int64))

    def test_dense_log_grid(self):
        # 2^20 + 3 arguments: many _BLOCK blocks and a short last one
        self.assert_bit_equal(np.geomspace(2.0, 1e20, 2**20 + 3))

    def test_branch_edge(self):
        z = np.array([2.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, np.inf)])
        self.assert_bit_equal(z)
        self.assert_bit_equal(np.repeat(z, 3 * vr._BLOCK // 4))  # mixed blocks

    def test_near_zero_and_beyond(self):
        self.assert_bit_equal(np.array([0.0, 5e-324, 1e-300, 1e-8, 1e100, 1e300, np.inf]))


def bessel_ratio_scaled(w):
    """exp(-w) I_1(w)/w from the ball kernel: one key with gap 1 and beta_min 0, rho2 = w."""
    return vr._ball_kernel(np.ones(1), np.zeros(1), np.asarray(w, dtype=float))[0]


class TestBallKernel:
    """The power series below _SERIES_MAX and i1e above, in gap-ordered bands."""

    @staticmethod
    def mp_kernel(gap, beta_min, rho2):
        """exp(-beta_min rho2) exp(-w) I_1(w)/w at w = gap rho2, at 40 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            g, b, r = (mpmath.mpf(float(v)) for v in (gap, beta_min, rho2))
            w = g * r
            ratio = mpmath.mpf(0.5) if w == 0 else mpmath.besseli(1, w) * mpmath.exp(-w) / w
            return float(ratio * mpmath.exp(-b * r))

    def test_matches_mpmath(self):
        w = np.unique(np.concatenate([
            np.linspace(0.0, 2.0, 801),
            np.geomspace(1e-12, 2.0, 241),
            2.0 * (1.0 + np.array([-1e-15, 0.0, 1e-15])),
            np.geomspace(2.0, 1e15, 151),
        ]))
        ref = np.array([self.mp_kernel(x, 0.0, 1.0) for x in w])
        np.testing.assert_allclose(bessel_ratio_scaled(w), ref, rtol=1e-15, atol=0.0)
        # rows of gaps around the switch, with a beta_min factor (kept below
        # e^-1 on these nodes: a larger exponent amplifies the rounding of
        # beta_min * rho2 in any evaluation); i1e entries are within 1e-15,
        # the product with the factor within 2e-15
        gap = np.array([0.0, 0.1, 0.5, 1.0, 1.5])
        beta_min = np.array([0.05, 0.0, 1e-3, 0.02, 0.05])
        rho2 = np.geomspace(1e-3, 20.0, 61)
        got = vr._ball_kernel(gap, beta_min, rho2)
        for g, b, row in zip(gap, beta_min, got):
            ref = np.array([self.mp_kernel(g, b, r) for r in rho2])
            np.testing.assert_allclose(row, ref, rtol=2e-15, atol=0.0)

    def test_series_length_covers_switch(self):
        # the tail beyond the kept terms is below 2^-56 of the sum up to
        # _SERIES_MAX: its terms fall at least geometrically by u / ((n+1)(n+2))
        n, u = len(vr._SERIES), 0.25 * vr._SERIES_MAX**2
        assert vr._SERIES == tuple(
            1.0 / (2.0 * math.factorial(k) * math.factorial(k + 1)) for k in range(n)
        )
        first_omitted = u**n / (2.0 * math.factorial(n) * math.factorial(n + 1))
        ratio = u / ((n + 1) * (n + 2))
        total = sum(c * u**k for k, c in enumerate(vr._SERIES))
        assert ratio < 1.0
        assert first_omitted / (1.0 - ratio) < 2.0**-56 * total

    @pytest.mark.parametrize("zero_gaps", [False, True])
    def test_row_order_bit_equal(self, zero_gaps):
        # sorted rows narrow the mixed band; any order, or one row at a time,
        # gives the same entries
        rng = np.random.default_rng(3)
        gap = np.sort(rng.uniform(0.02, 0.5, 400))
        if zero_gaps:
            gap[:7] = 0.0
        beta_min = rng.exponential(1.0, gap.shape)
        rho2 = np.sort(rng.uniform(0.0, 200.0, 180))
        got = vr._ball_kernel(gap, beta_min, rho2)
        perm = rng.permutation(gap.shape[0])
        np.testing.assert_array_equal(vr._ball_kernel(gap[perm], beta_min[perm], rho2), got[perm])
        for i in range(0, gap.shape[0], 37):
            one = vr._ball_kernel(gap[i : i + 1], beta_min[i : i + 1], rho2)
            np.testing.assert_array_equal(one, got[i : i + 1])
        # an all-series, a mixed and (with no zero gap) an all-i1e band
        below = gap[:, None] * rho2 < vr._SERIES_MAX
        assert below[:, 0].all()
        assert np.any(below.any(axis=0) & ~below.all(axis=0))
        assert (~below[:, -1]).all() != zero_gaps

    def test_zero_gaps_are_series(self):
        # a block of isotropic keys is one series band, with no division
        rho2 = np.geomspace(1e-3, 1e4, 50)
        beta_min = np.array([1e-4, 0.3])
        got = vr._ball_kernel(np.zeros(2), beta_min, rho2)
        ref = 0.5 * np.exp(-beta_min[:, None] * rho2)
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)


def frameless(basis):
    """The functions of basis with no frames: every pair keyed by its 2x2 form."""
    return vr.GaussianBasis(a=basis.a, b=basis.b, c=basis.c)


def triu_keys(basis):
    """pair_keys of every upper-triangle pair (np.triu_indices order), and those pairs' forms."""
    iu = np.triu_indices(basis.size)
    forms = vr.PairForms(*(f[iu] for f in whole_forms(basis)))
    return vr.pair_keys(forms, *iu, basis.frames), forms


def whole_ball_matrices(basis, radii):
    """ball_matrices with every upper-triangle pair in one pass: the whole-matrix layout.

    The keys, interior test, hyperradial rule, kernel chunks and scatter of
    the library, on all pairs at once.
    """
    r = np.atleast_1d(np.asarray(radii, dtype=float))[:, None]
    iu = np.triu_indices(basis.size)
    (beta_min, gap, beta_max), forms = triu_keys(basis)
    vals = np.where(r > 0, forms.overlap, 0.0)
    quad = (r > 0) & vr._below_interior(beta_min, r)
    pairs = np.flatnonzero(quad.any(axis=0))
    if pairs.size:
        cuts = np.unique(r[quad.any(axis=1), 0])
        rho, weights = vr._hyperradial_rule(float(np.max(beta_max[pairs])), cuts)
        keys, inverse = np.unique(gap[pairs] + 1j * beta_min[pairs], return_inverse=True)
        acc = np.empty((keys.size, cuts.size))
        for s in range(0, keys.size, vr._CHUNK):
            k = keys[s : s + vr._CHUNK]
            acc[s : s + k.size] = vr._ball_kernel(k.real, k.imag, rho * rho) @ weights
        acc = acc[inverse]
        col = np.minimum(np.searchsorted(cuts, r[:, 0]), cuts.size - 1)
        vals[:, pairs] = np.where(quad[:, pairs], 2.0 * np.pi**3 * acc[:, col].T, vals[:, pairs])
    out = np.empty((r.shape[0], basis.size, basis.size))
    out[:, iu[0], iu[1]] = vals
    out[:, iu[1], iu[0]] = vals
    snorm = 1.0 / np.sqrt(np.diag(whole_forms(basis).overlap))
    return out * np.outer(snorm, snorm)


def undeduplicated_ball_overlap(basis, radii):
    """ball_overlap integrating every quadrature pair form on its own.

    The kernel before one integral per distinct eigenvalue pair: the same
    per-pair keys, hyperradial rule, Bessel kernel and closed-form interior,
    with one kernel row per upper-triangle form.
    """
    r = np.asarray(radii, dtype=float)[:, None]
    iu = np.triu_indices(basis.size)
    (beta_min, gap, beta_max), forms = triu_keys(basis)
    det = forms.det
    quad = beta_min * r**2 < vr._INTERIOR
    pairs = np.flatnonzero(quad.any(axis=0))
    cuts = np.unique(r[quad.any(axis=1), 0])
    rho, weights = vr._hyperradial_rule(float(np.max(beta_max[pairs])), cuts)
    f = vr._ball_kernel(gap[pairs], beta_min[pairs], rho * rho)
    acc = 2.0 * np.pi**3 * (f @ weights)
    vals = np.tile(np.pi**3 / det**1.5, (r.shape[0], 1))
    col = np.minimum(np.searchsorted(cuts, r[:, 0]), cuts.size - 1)
    vals[:, pairs] = np.where(quad[:, pairs], acc[:, col].T, vals[:, pairs])
    out = np.empty((r.shape[0], basis.size, basis.size))
    out[:, iu[0], iu[1]] = vals
    out[:, iu[1], iu[0]] = vals
    return out


def frames_basis(masses, n_random=0):
    spec = vr.BasisSpec(0.3, 10.0, 6, 0.3, 60.0, 7, "frames", n_random=n_random, seed=11)
    return vr.build_basis(spec, masses)


def quad_keys(basis):
    """Bit-distinct (beta_min, gap) keys of the forms that take the quadrature; the form count."""
    (beta_min, gap, _), _ = triu_keys(basis)
    quad = beta_min * np.array(RADII)[:, None] ** 2 < vr._INTERIOR
    pairs = np.flatnonzero(quad.any(axis=0))
    return set(zip(beta_min[pairs].tolist(), gap[pairs].tolist())), pairs.size


def counted_kernel_rows(monkeypatch):
    """Patch the Bessel kernel to record the rows of every call; returns the record."""
    rows = []
    kernel = vr._ball_kernel

    def counting(gap, beta_min, rho2):
        rows.append(gap.shape[0])
        return kernel(gap, beta_min, rho2)

    monkeypatch.setattr(vr, "_ball_kernel", counting)
    return rows


class TestBallOverlapDistinctForms:
    """One hyperradial integral per bit-distinct (beta_min, gap) key."""

    @pytest.mark.parametrize("case", ["small", "wide", "random", "unequal"])
    def test_matches_undeduplicated_kernel(self, case, small_basis, wide_basis):
        basis = {
            "small": small_basis,
            "wide": wide_basis,
            "random": frames_basis(MassSet(1.0, 1.0, 1.0), n_random=12),
            "unequal": frames_basis(MassSet(1.0, 0.7, 1.6), n_random=6),
        }[case]
        for keyed in (frameless(basis), basis):
            got = vr.ball_overlap(keyed, np.array(RADII))
            ref = undeduplicated_ball_overlap(keyed, RADII)
            assert np.max(np.abs(got / ref - 1.0)) <= 1e-14

    def test_kernel_rows_are_distinct_keys(self, small_basis, monkeypatch):
        rows = counted_kernel_rows(monkeypatch)
        for keyed in (frameless(small_basis), small_basis):
            rows.clear()
            vr.ball_overlap(keyed, np.array(RADII))
            keys, n_pairs = quad_keys(keyed)
            assert sum(rows) == len(keys) < 0.6 * n_pairs

    def test_frame_keys_halve_the_kernel_rows(self, small_basis, monkeypatch):
        # equal masses: every cross-frame pair is at the same angle, so the
        # three frames share their keys
        rows = counted_kernel_rows(monkeypatch)
        vr.ball_matrices(small_basis, np.array(RADII))
        form_keys, _ = quad_keys(frameless(small_basis))
        assert sum(rows) < 0.5 * len(form_keys)

    def test_duplicated_functions_bit_equal(self, small_basis):
        n = small_basis.size
        basis = small_basis.merged(small_basis)
        ball = vr.ball_overlap(basis, np.array(RADII))
        top = ball[:, :n, :n]
        for block in (ball[:, n:, :n], ball[:, :n, n:], ball[:, n:, n:]):
            np.testing.assert_array_equal(block, top)


MASS_SETS = {"equal": (1.0, 1.0, 1.0), "two-equal": (1.0, 1.0, 2.0), "unequal": (1.0, 0.7, 1.6)}


class TestFrameKeys:
    """Ball keys of frames-mode pairs from their frame widths and frame angle."""

    @pytest.mark.parametrize("masses", MASS_SETS)
    def test_agree_with_form_keys(self, masses):
        # a form key carries the rotated forms' rounding, up to eps beta_max in
        # each eigenvalue (the det = Ba Bb - Bc2^2 cancellation); the frame key
        # none of it (largest measured: 4 eps beta_max / beta_min relative in
        # beta_min, 1.5 eps beta_max in gap).  Pairs with a random function
        # keep their form keys bit for bit.
        basis = frames_basis(MassSet(*MASS_SETS[masses]), n_random=6)
        (f_min, f_gap, f_max), _ = triu_keys(basis)
        (g_min, g_gap, g_max), _ = triu_keys(frameless(basis))
        eps = np.finfo(float).eps
        assert np.all(np.abs(f_min / g_min - 1.0) <= 8.0 * eps * g_max / g_min)
        assert np.all(np.abs(f_gap - g_gap) <= 8.0 * eps * g_max)
        iu = np.triu_indices(basis.size)
        random = (basis.frames.index[iu[0]] < 0) | (basis.frames.index[iu[1]] < 0)
        assert 0 < np.sum(random) < random.size
        for f, g in ((f_min, g_min), (f_gap, g_gap), (f_max, g_max)):
            np.testing.assert_array_equal(f[random], g[random])

    @pytest.mark.parametrize("masses", MASS_SETS)
    def test_equal_content_bit_equal(self, masses):
        rng = np.random.default_rng(5)
        widths = np.exp(rng.uniform(-6.0, 2.0, (40, 2)))
        widths[:5, 1] = widths[:5, 0]  # isotropic
        n = widths.shape[0]
        i, j = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        # function n in every frame: copy A of n sits at A * n_functions + n
        frames = vr.Frames(MassSet(*MASS_SETS[masses]), np.repeat(np.arange(3), n),
                           np.tile(widths, (3, 1)))
        angles = frames.angles()
        keys = {(A, B): np.array(frames.keys(A * n + i, B * n + j))
                for A in range(3) for B in range(3)}
        for (A, B), k in keys.items():
            np.testing.assert_array_equal(k, np.array(frames.keys(B * n + j, A * n + i)))
            for (C, D), other in keys.items():
                if (A == B) == (C == D) and np.array_equal(angles[A, B], angles[C, D]):
                    np.testing.assert_array_equal(k, other)
        # an isotropic function has one key per partner, whatever the frames
        iso = i < 5
        for k in keys.values():
            np.testing.assert_array_equal(k[:, iso], keys[0, 0][:, iso])
        # a same-frame pair is keyed by its width sums p1 + q1, p2 + q2 alone
        (p1, p2), (q1, q2) = widths[i].T, widths[j].T
        swapped = np.concatenate([np.c_[q1, p2], np.c_[p1, q2]])
        frames = vr.Frames(MassSet(*MASS_SETS[masses]), np.ones(2 * i.size, int), swapped)
        np.testing.assert_array_equal(frames.keys(np.arange(i.size), i.size + np.arange(i.size)),
                                      keys[1, 1])
        # the angle table is exact on equal spectators: equal masses put all
        # cross-frame pairs at cos^2 = 1/4, (1, 1, 2) two of them at 1/3
        off = [tuple(angles[A, B]) for A, B in itertools.permutations(range(3), 2)]
        assert len(set(off)) == {"equal": 1, "two-equal": 2, "unequal": 3}[masses]

    def test_probability_matches_form_keys(self, ground_small, small_basis):
        # the keys move quadrature entries by at most ~1e-12 relative, P(R) by a few ulp
        radii = np.array([2.0, 5.0, 10.0, 30.0])
        by_forms = vr.ball_matrices(frameless(small_basis), radii)
        p = vr.probability_inside(vr.ball_matrices(small_basis, radii), ground_small.coefficients)
        ref = vr.probability_inside(by_forms, ground_small.coefficients)
        np.testing.assert_allclose(p, ref, rtol=4 * np.finfo(float).eps, atol=0.0)
        assert not np.array_equal(vr.ball_matrices(small_basis, radii), by_forms)

    @pytest.mark.parametrize("spec", [
        vr.BasisSpec(0.4, 12.0, 5, 0.4, 30.0, 5, (-0.6, 0.0, 0.6)),
        vr.BasisSpec(0.4, 12.0, 3, 0.4, 30.0, 3, (0.0,), n_random=20, seed=4),
        vr.BasisSpec(0.4, 12.0, 3, 0.4, 30.0, 3, (0.3,), symmetrize_12=True),
    ], ids=["correlations", "random", "symmetrized"])
    def test_frameless_basis_keeps_form_keys(self, spec):
        basis = vr.build_basis(spec)
        assert basis.frames is None
        np.testing.assert_array_equal(vr.ball_matrices(basis, np.array(RADII)),
                                      whole_ball_matrices(basis, RADII))

    def test_frames_follow_the_functions(self, equal_masses):
        spec = vr.BasisSpec(0.4, 8.0, 3, 0.4, 8.0, 3, "frames", n_random=3, seed=2,
                            symmetrize_12=True)
        basis = vr.build_basis(spec, equal_masses)
        index, widths = basis.frames.index, basis.frames.widths
        # the isotropic functions appear once, in the first frame
        assert np.sum(index >= 0) == 3 * 9 - 2 * 3
        assert np.all(index[index >= 0] == np.repeat([0, 1, 2], [9, 6, 6]))
        for n in np.flatnonzero(index >= 0):
            R = vr.kinematic_rotation(equal_masses, "12", vr.PAIRS[index[n]])
            Q = R.T @ np.diag(widths[n]) @ R
            np.testing.assert_allclose([basis.a[n], basis.b[n], 0.5 * basis.c[n]],
                                       [Q[0, 0], Q[1, 1], Q[0, 1]], rtol=1e-14, atol=1e-15)
        merged = vr.build_basis(vr.BasisSpec(n_x=2, n_y=2, correlations=(0.0,))).merged(basis)
        np.testing.assert_array_equal(merged.frames.index, np.concatenate([[-1] * 4, index]))
        # frames of other masses are not this basis's frames: they are dropped
        other = vr.build_basis(spec, MassSet(1.0, 0.7, 1.6))
        merged = basis.merged(other)
        assert merged.frames.masses == equal_masses
        np.testing.assert_array_equal(merged.frames.index,
                                      np.concatenate([index, [-1] * other.size]))


def inflated_ball(basis, R):
    """1.01 x the full overlap: a P(R) of 1.01 whatever the radius."""
    return 1.01 * whole_forms(basis).overlap


@pytest.fixture(scope="module")
def ground_small(gauss_model_factory, small_basis):
    return vr.solve_ground(gauss_model_factory(1.0), small_basis)


class TestProbabilityInside:
    def test_scalar_in_scalar_out(self, ground_small, small_basis):
        # one radius gives a one-entry array, like any list of radii
        p = p_of_state(small_basis, ground_small, [5.0])
        assert p.shape == (1,)
        p = p[0]
        ps = p_of_state(small_basis, ground_small, [0.0, 5.0, 50.0])
        assert ps.shape == (3,)
        assert ps[0] == 0.0 and np.isclose(ps[1], p, rtol=1e-13)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_basis_order_invariance(self, ground_small, small_basis, seed):
        # only the upper triangle is evaluated; a wrong mirror breaks this
        gs = ground_small
        idx = np.random.default_rng(seed).permutation(small_basis.size)
        basis = vr.GaussianBasis(a=small_basis.a[idx], b=small_basis.b[idx],
                                 c=small_basis.c[idx])
        permuted = vr.GroundState(
            energy=gs.energy,
            coefficients=gs.coefficients[idx],
            gram=gs.gram[np.ix_(idx, idx)],
            eigenvalues=gs.eigenvalues,
        )
        radii = [2.0, 10.0]
        np.testing.assert_allclose(
            p_of_state(basis, permuted, radii),
            p_of_state(small_basis, gs, radii),
            rtol=1e-12, atol=0.0,
        )

    def test_out_of_range_raises(self, ground_small, small_basis, monkeypatch):
        monkeypatch.setattr(vr, "ball_overlap", inflated_ball)
        with pytest.raises(vr.IllConditionedBasisError, match="rounding estimate"):
            p_of_state(small_basis, ground_small, [10.0])

    def test_radius_with_overflowing_square(self, tmp_path):
        # 1e300^2 overflows: every pair takes the closed form, with no warning
        cfg = tmp_path / "model.cfg"
        cfg.write_text(FULL.replace("[experiment]\n", "[experiment]\nradii = 10,1e300\n"))
        src = str(Path(__file__).parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fewbody.cli", "three-body",
             "ground", "--config", str(cfg), "--quiet"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        header, row = done.stdout.splitlines()
        p = dict(zip(header.split(","), row.split(",")))
        assert float(p["p_r1.0000000000000001e+300"]) == 1.0
        assert 0.0 < float(p["p_r10"]) < 1.0

    def test_interior_test_cannot_overflow(self):
        # the plain product's verdict wherever r^2 is finite, and not interior beyond
        rng = np.random.default_rng(3)
        beta = np.concatenate([10.0 ** rng.uniform(-300, 300, 4000), rng.uniform(0.0, 100.0, 4000),
                               [1.0, 50.0, np.nextafter(50.0, 0.0), 5e-324, 1e308]])
        r = np.concatenate([10.0 ** rng.uniform(-150, 154.1, 60), rng.uniform(0.0, 20.0, 40),
                            [0.0, 1.0, math.sqrt(50.0), np.nextafter(2.0**512, 0.0), 2.0**512,
                             1e300]])[:, None]
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            got = vr._below_interior(beta, r)
        with np.errstate(over="ignore", under="ignore"):
            finite = np.isfinite(r[:, 0] ** 2)
            plain = beta * r**2 < vr._INTERIOR
        np.testing.assert_array_equal(got[finite], plain[finite])
        assert not got[~finite].any() and (~finite).sum() == 2

    def test_out_of_range_exits_numeric(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(FULL)
        monkeypatch.setattr(vr, "ball_overlap", inflated_ball)
        assert main(["three-body", "ground", "--config", str(cfg), "--quiet"]) == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err


def test_shares_no_module_with_the_coupled_solver():
    # the two 3-body solvers share no code path: importing this one loads no faddeev
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, fewbody.variational; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert "fewbody.variational" in out and "fewbody.faddeev" not in out
