import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf, ive

from fewbody import twobody as tb
from fewbody import variational as vr
from fewbody.cli import EXIT_NUMERIC, main
from fewbody.model import _gauss_legendre_panels
from tests.conftest import GAUSS_LAMBDA_STAR, make_model
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


class TestMatrixElements:
    def test_kinetic_against_single_gaussian(self):
        b = vr.GaussianBasis(a=np.array([0.7]), b=np.array([0.4]), c=np.array([0.0]))
        S = vr.overlap_matrix(b)
        T = vr.kinetic_matrix(b)
        assert np.isclose(T[0, 0] / S[0, 0], 3 * 0.7 + 3 * 0.4, rtol=1e-12)

    def test_overlap_closed_form(self):
        b = vr.GaussianBasis(a=np.array([0.5]), b=np.array([0.5]), c=np.array([0.3]))
        S = vr.overlap_matrix(b)
        det = 1.0 * 1.0 - 0.3**2
        assert np.isclose(S[0, 0], np.pi**3 / det**1.5, rtol=1e-13)

    def test_gaussian_potential_element(self, equal_masses, gaussian_well):
        model = make_model(equal_masses, gaussian_well, (1, 1, 1))
        b = vr.GaussianBasis(a=np.array([0.7]), b=np.array([0.7]), c=np.array([0.0]))
        V = vr.potential_matrix(b, model, "12")
        S = vr.overlap_matrix(b)
        assert np.isclose(V[0, 0] / S[0, 0], (1.4 / 2.4) ** 1.5, rtol=1e-12)
        # equal masses and equal widths: all pair separations equidistributed
        V23 = vr.potential_matrix(b, model, "23")
        assert np.isclose(V[0, 0], V23[0, 0], rtol=1e-12)

    def test_square_well_element_against_erf(self, equal_masses, square_well):
        model = make_model(equal_masses, square_well, (1, 1, 1))
        b = vr.GaussianBasis(a=np.array([0.9]), b=np.array([0.6]), c=np.array([0.2]))
        V = vr.potential_matrix(b, model, "12")
        S = vr.overlap_matrix(b)
        cb = vr.pair_width_matrix(
            b, __import__("fewbody.faddeev", fromlist=["pair_separation_coeffs"])
            .pair_separation_coeffs(equal_masses, "12"),
        )[0, 0]
        R = square_well.range
        exact = erf(math.sqrt(cb) * R) - 2 * math.sqrt(cb / np.pi) * R * math.exp(-cb * R * R)
        assert np.isclose(V[0, 0] / S[0, 0], exact, rtol=1e-8)


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

    def test_gram_floor_error(self, gauss_model_factory, small_basis):
        with pytest.raises(vr.IllConditionedBasisError):
            vr.solve_ground(gauss_model_factory(1.0), small_basis, gram_floor=2.0)


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


class TestBoundStateCount:
    def test_no_couplings(self, equal_masses, gaussian_well, small_basis):
        m = make_model(equal_masses, gaussian_well, (0, 0, 0))
        assert vr.bound_state_count(m, small_basis) == 0

    def test_single_weak_pair(self, equal_masses, gaussian_well, small_basis):
        m = make_model(equal_masses, gaussian_well, (0.5 * GAUSS_LAMBDA_STAR, 0, 0))
        assert vr.bound_state_count(m, small_basis) == 0


class TestLocalization:
    def test_limits(self, gauss_model_factory, small_basis):
        gs = vr.solve_ground(gauss_model_factory(1.0), small_basis)
        assert vr.probability_inside(gs, 0.0) == 0.0
        assert abs(vr.probability_inside(gs, 1e6) - 1.0) < 1e-8

    def test_deep_binding_compact(self, gauss_model_factory, small_basis):
        gs = vr.solve_ground(gauss_model_factory(1.3), small_basis)
        assert vr.probability_inside(gs, 5.0) > 0.99

    def test_monotone_probe(self, gauss_model_factory, small_basis):
        gs = vr.solve_ground(gauss_model_factory(1.0), small_basis)
        probe = vr.spreading_probe(gs, [1.0, 2.0, 5.0, 10.0, 50.0])
        assert np.all(np.diff(probe.probabilities) >= -1e-9)
        assert np.all((probe.probabilities >= 0) & (probe.probabilities <= 1))

    def test_ball_overlap_isotropic_analytic(self):
        # equal widths: the ball integral collapses to an incomplete gamma
        from fewbody.variational import ball_overlap

        beta = 0.7
        Ba = np.array([[2 * beta]])
        val = ball_overlap(Ba, Ba, np.array([[0.0]]), R=2.0)[0, 0]
        from scipy.special import gammainc

        exact = np.pi**3 / (2 * beta) ** 3 * gammainc(3, 2 * beta * 4.0)
        assert np.isclose(val, exact, rtol=1e-10)

    def test_ball_overlap_matches_overlap_at_infinity(self, small_basis):
        from fewbody.variational import _pair_forms, ball_overlap

        Ba, Bb, Bc2, _ = _pair_forms(small_basis)
        full = ball_overlap(Ba, Bb, Bc2, R=1e4)
        S = vr.overlap_matrix(small_basis)
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
        Ba, Bb, Bc2, det = vr._pair_forms(basis)
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
        for R, got in zip(RADII, vr.ball_overlap(Ba, Bb, Bc2, np.array(RADII))):
            ref = reference_ball_overlap(Ba[iu], Bb[iu], Bc2[iu], R)
            assert np.max(np.abs(got[iu] / ref - 1.0)) <= 1e-12, R

    def test_multi_radius_equals_per_radius(self, small_basis):
        Ba, Bb, Bc2, _ = vr._pair_forms(small_basis)
        radii = np.array([30.0, 0.5, 10.0, 2.0, 1e4])  # unsorted on purpose
        multi = vr.ball_overlap(Ba, Bb, Bc2, radii)
        assert multi.shape == (radii.size, small_basis.size, small_basis.size)
        for R, got in zip(radii, multi):
            single = vr.ball_overlap(Ba, Bb, Bc2, float(R))
            assert single.shape == (small_basis.size, small_basis.size)
            np.testing.assert_allclose(got, single, rtol=1e-13, atol=0.0)
            np.testing.assert_array_equal(got, got.T)

    def test_bessel_kernel_exact_at_large_w(self):
        # i1e needs no asymptotic branch: it matches the series through 1e15
        w = np.geomspace(1e8, 1e15, 29)
        series = (1.0 - 3.0 / (8.0 * w) - 15.0 / (128.0 * w**2)) / np.sqrt(2.0 * np.pi * w**3)
        np.testing.assert_allclose(vr._bessel_ratio_scaled(w), series, rtol=4e-16, atol=0.0)
        # the small-w series joins ive continuously at the 1e-6 switch
        w = np.array([0.0, 9.9e-7, 1.01e-6])
        ref = np.array([0.5, *(ive(1, w[1:]) / w[1:])])
        np.testing.assert_allclose(vr._bessel_ratio_scaled(w), ref, rtol=1e-15, atol=0.0)


def inflated_ball(Ba, Bb, Bc2, R):
    """1.01 x the full overlap: a P(R) of 1.01 whatever the radius."""
    return 1.01 * np.pi**3 / (Ba * Bb - Bc2**2) ** 1.5


@pytest.fixture(scope="module")
def ground_small(gauss_model_factory, small_basis):
    return vr.solve_ground(gauss_model_factory(1.0), small_basis)


class TestProbabilityInside:
    def test_scalar_in_scalar_out(self, ground_small):
        p = vr.probability_inside(ground_small, 5.0)
        assert isinstance(p, float)
        ps = vr.probability_inside(ground_small, [0.0, 5.0, 50.0])
        assert ps.shape == (3,)
        assert ps[0] == 0.0 and np.isclose(ps[1], p, rtol=1e-13)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_basis_order_invariance(self, ground_small, seed):
        # only the upper triangle is evaluated; a wrong mirror breaks this
        gs = ground_small
        idx = np.random.default_rng(seed).permutation(gs.basis.size)
        basis = vr.GaussianBasis(a=gs.basis.a[idx], b=gs.basis.b[idx], c=gs.basis.c[idx])
        permuted = vr.GroundState(
            energy=gs.energy,
            coefficients=gs.coefficients[idx],
            gram=gs.gram[np.ix_(idx, idx)],
            basis=basis,
            eigenvalues=gs.eigenvalues,
        )
        radii = [2.0, 10.0]
        np.testing.assert_allclose(
            vr.probability_inside(permuted, radii), vr.probability_inside(gs, radii),
            rtol=1e-12, atol=0.0,
        )

    def test_out_of_range_raises(self, ground_small, monkeypatch):
        monkeypatch.setattr(vr, "ball_overlap", inflated_ball)
        with pytest.raises(vr.IllConditionedBasisError, match="rounding estimate"):
            vr.probability_inside(ground_small, 10.0)

    def test_out_of_range_exits_numeric(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(FULL)
        monkeypatch.setattr(vr, "ball_overlap", inflated_ball)
        assert main(["three-body", "ground", "--config", str(cfg), "--quiet"]) == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err
