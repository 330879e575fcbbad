import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jn_zeros

from fewbody.model import PotentialSpec, Quadrature, ZeroPotentialError
from fewbody import twobody as tb
from tests.conftest import EXP_LAMBDA_STAR, GAUSS_LAMBDA_STAR, RESONANCE_TOL, SW_LAMBDA_STAR
from tests.test_model import BS_WELLS, VOLUME_WELLS


def sw_ground_energy(lam: float) -> float:
    """Analytic s-wave ground level of the unit square well (oracle)."""

    def match(e):
        q = math.sqrt(lam + e)
        return q / math.tan(q) + math.sqrt(-e)

    return brentq(match, -lam + 1e-12, -1e-12, xtol=1e-15)


class TestAssembly:
    def test_zero_coupling_gives_zero_matrix(self, square_well, sw_quad):
        assert np.all(tb.assemble_bs(square_well, 0.0, 0.3, sw_quad) == 0.0)

    def test_matrix_symmetric_and_nonnegative(self):
        # every analytic kind and one tabulated well, symmetric bit for bit
        for pot in VOLUME_WELLS[:4]:
            quad = Quadrature.for_potential(pot)
            for k in (0.0, 0.4):
                M = tb.assemble_bs(pot, 1.7, k, quad)
                assert np.array_equal(M, M.T), (pot.kind, k)
                assert np.min(M) >= 0.0, (pot.kind, k)

    def test_square_well_top_eigenvalue(self, square_well, sw_quad):
        mu = tb.mu_max(square_well, 1.0, 0.0, sw_quad)
        assert abs(mu - 4.0 / np.pi**2) < 1e-12

    def test_norm_decay_at_large_k(self, square_well, sw_quad):
        # compare against the volume-constant bound evaluated by quadrature
        mu = tb.mu_max(square_well, 1.0, 1e3, sw_quad)
        assert mu < 1e-2
        c = sw_quad.radial_integral(square_well.value)
        assert mu <= c / (4 * np.pi) + 1e-12

    def test_norm_nonincreasing_in_k(self, gaussian_well, gauss_quad):
        mus = [tb.mu_max(gaussian_well, 1.0, k, gauss_quad) for k in (0.0, 0.1, 0.2)]
        assert mus[0] > mus[1] > mus[2]

    def test_linearity_in_coupling(self, gaussian_well, gauss_quad):
        mu1 = tb.mu_max(gaussian_well, 1.0, 0.3, gauss_quad)
        mu2 = tb.mu_max(gaussian_well, 1.7, 0.3, gauss_quad)
        assert abs(mu2 - 1.7 * mu1) < 1e-12


def reference_greens_matrix(k: float, quad: Quadrature) -> np.ndarray:
    """The per-row product-corrected kernel matrix, one Lagrange evaluation per row."""
    r, w = quad.nodes, quad.weights
    omega = tb.reduced_greens(k, r[:, None], r[None, :]) * w[None, :]
    xs, ws = np.polynomial.legendre.leggauss(24)
    for a, b, lo, hi in quad.panels:
        nodes = r[lo:hi]
        bw = tb._bary_weights(nodes, b - a)
        for i in range(r.size):
            ri = r[i]
            if not (a < ri < b):
                continue
            acc = np.zeros(hi - lo)
            for aa, bb in ((a, ri), (ri, b)):
                t = 0.5 * (bb - aa) * xs + 0.5 * (aa + bb)
                tw = 0.5 * (bb - aa) * ws
                acc += (tb.reduced_greens(k, ri, t) * tw) @ tb._lagrange_at(nodes, bw, t)
            omega[i, lo:hi] = acc
    G = omega / w[None, :]
    G = 0.5 * (G + G.T)
    np.clip(G, 0.0, None, out=G)
    return G


class TestGreensMatrixReference:
    # k = 0 and k below the cutoff take the min(r, r') kernel; the rest the
    # exponential one, from the near-threshold fibers out to deep decay
    K_VALUES = (0.0, 0.5 * tb.K_ZERO_CUTOFF, 1e-6, 1e-3, 0.05, 0.7, 3.0, 25.0)

    @pytest.mark.parametrize("grid", [
        dict(r_max=12.0, n=16),  # the default panels, uneven panel sizes
        dict(r_max=8.0, n=40, edges=[0.0, 0.3, 1.0, 2.5, 8.0]),
    ])
    def test_matches_per_row_loop(self, grid):
        for k in self.K_VALUES:
            G = tb.greens_matrix(k, Quadrature.build(**grid))
            ref = reference_greens_matrix(k, Quadrature.build(**grid))
            assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_correction_built_once_per_grid(self, gaussian_well):
        quad = Quadrature.for_potential(gaussian_well, n=16)
        tb.greens_matrix(0.1, quad)
        corr = quad._cache["product_correction"]
        tb.greens_matrix(0.2, quad)
        assert quad._cache["product_correction"] is corr
        assert list(quad._cache) == ["product_correction"]  # no per-k matrix is kept


class TestEigenpair:
    def test_zero_matrix_degenerate(self, square_well, sw_quad):
        assert tb.mu_max(square_well, 0.0, 0.1, sw_quad) == 0.0

    def test_perron_positivity_and_residual(self, gaussian_well, gauss_quad):
        # phi0 is the top eigenvector at lam*, where the top eigenvalue is one
        res = tb.resonance_data(gaussian_well, gauss_quad)
        M = tb.assemble_bs(gaussian_well, res.lambda_star, 0.0, gauss_quad)
        assert np.min(res.phi0) >= 0.0
        assert np.linalg.norm(M @ res.phi0 - res.phi0) <= 1e-10


class TestCriticalCoupling:
    def test_square_well_analytic(self, square_well, sw_quad):
        lam = tb.critical_coupling(square_well, sw_quad)
        assert abs(lam - SW_LAMBDA_STAR) / SW_LAMBDA_STAR < 1e-10

    def test_gaussian_pinned_by_shooting(self, gaussian_well, gauss_quad):
        lam = tb.critical_coupling(gaussian_well, gauss_quad)
        assert abs(lam - GAUSS_LAMBDA_STAR) < 1e-9
        lam_shoot = tb.shooting_critical_coupling(gaussian_well, tol=1e-12)
        assert abs(lam - lam_shoot) / lam < 1e-9

    @pytest.mark.parametrize("n", [192, 256, 384])
    def test_wide_panels_converge(self, gaussian_well, n):
        # the widest panel holds 53 to 104 nodes: its self-panel rule grows with it
        lam = tb.critical_coupling(gaussian_well, Quadrature.for_potential(gaussian_well, n=n))
        lam_shoot = tb.shooting_critical_coupling(gaussian_well, tol=1e-12)
        assert lam == pytest.approx(lam_shoot, rel=1e-11, abs=0)

    def test_exponential_bessel_zero(self, exponential_well):
        # tails matter here: push the grid out far enough to hold the well
        quad = Quadrature.build(r_max=30.0, n=96, edges=[0, 1, 2, 4, 8, 16, 30])
        lam = tb.critical_coupling(exponential_well, quad)
        assert abs(lam - EXP_LAMBDA_STAR) / EXP_LAMBDA_STAR < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["gaussian", "exponential", "square_well"])
    def test_range_covariant_from_1e_minus_60_to_1e60(self, kind):
        # lambda* range^2 does not depend on the range, one range per decade:
        # the self-panel rule's barycentric weights neither under- nor overflow
        unit = PotentialSpec(kind)
        ref = tb.critical_coupling(unit, Quadrature.for_potential(unit))
        for e in range(-60, 61):
            pot = PotentialSpec(kind, range=10.0**e)
            lam = tb.critical_coupling(pot, Quadrature.for_potential(pot))
            assert lam * pot.range**2 == pytest.approx(ref, rel=1e-12, abs=0), pot.range

    def test_zero_potential_raises(self, sw_quad):
        with pytest.raises(ZeroPotentialError):
            tb.critical_coupling(PotentialSpec("gaussian", depth=0.0), sw_quad)

    def test_mu_equals_one_at_threshold(self, square_well, sw_quad, sw_resonance):
        mu = tb.mu_max(square_well, sw_resonance.lambda_star, 0.0, sw_quad)
        assert abs(mu - 1.0) < 1e-10


class TestShooting:
    def test_square_well_levels_match_analytic(self, square_well):
        for lam in (2.0 * SW_LAMBDA_STAR, 3.0 * SW_LAMBDA_STAR):
            e = tb.shooting_ground_energy(square_well, lam)
            assert abs(e - sw_ground_energy(lam)) < 1e-9

    def test_no_state_below_threshold(self, square_well):
        assert tb.shooting_ground_energy(square_well, SW_LAMBDA_STAR - 0.1) is None
        assert tb.shooting_ground_energy(square_well, SW_LAMBDA_STAR + 0.1) < 0

    def test_zero_coupling(self, square_well):
        assert tb.shooting_ground_energy(square_well, 0.0) is None

    def test_birman_schwinger_equivalence(self, square_well, sw_quad):
        # bound level at -k^2 makes the kernel eigenvalue hit one exactly
        rng = np.random.default_rng(20240817)
        for lam in rng.uniform(1.05 * SW_LAMBDA_STAR, 3.0 * SW_LAMBDA_STAR, 5):
            e0 = tb.shooting_ground_energy(square_well, float(lam))
            mu = tb.mu_max(square_well, float(lam), math.sqrt(-e0), sw_quad)
            assert abs(mu - 1.0) < 1e-6


class TestShootingOracle:
    # lam* of a well of range a is lam*(range 1) / a^2; the oracle integrates out
    # to where the tail is negligible and brackets the first threshold only
    # (at range 4 the exponential well has three thresholds below coupling 2)
    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_exponential_is_the_bessel_zero(self, a):
        lam = tb.shooting_critical_coupling(PotentialSpec("exponential", range=a), tol=1e-12)
        assert lam == pytest.approx(jn_zeros(0, 1)[0] ** 2 / 4.0 / a**2, rel=1e-11, abs=0)

    @pytest.mark.parametrize("kind", ["gaussian", "square_well"])
    @pytest.mark.parametrize("a", [0.25, 4.0])
    def test_scales_with_range(self, kind, a):
        unit = tb.shooting_critical_coupling(PotentialSpec(kind), tol=1e-12)
        lam = tb.shooting_critical_coupling(PotentialSpec(kind, range=a), tol=1e-12)
        assert lam == pytest.approx(unit / a**2, rel=1e-11, abs=0)

    # the top Birman-Schwinger eigenvalue, one at lam*, is at most lam* sqrt(T2)
    @pytest.mark.parametrize("pot", BS_WELLS, ids=lambda p: p.kind)
    def test_hilbert_schmidt_bound_is_sound(self, pot):
        assert tb.shooting_critical_coupling(pot, tol=1e-12) * math.sqrt(pot.bs_hs2()) >= 1.0


class TestResonance:
    def test_resonance_data_invariants(self, sw_resonance):
        assert np.isclose(np.linalg.norm(sw_resonance.phi0), 1.0)
        assert np.min(sw_resonance.phi0) >= -1e-12
        assert sw_resonance.a_coefficient > 0

    @pytest.mark.parametrize("well,quad_fix,res_fix", [
        ("square_well", "sw_quad", "sw_resonance"),
        ("gaussian_well", "gauss_quad", "gauss_resonance"),
    ])
    def test_slope_law(self, well, quad_fix, res_fix, request):
        pot = request.getfixturevalue(well)
        quad = request.getfixturevalue(quad_fix)
        res = request.getfixturevalue(res_fix)
        ks = (2e-3, 1e-3)
        slopes = [
            (1.0 - tb.mu_max(pot, res.lambda_star, k, quad)) / k for k in ks
        ]
        richardson = 2.0 * slopes[1] - slopes[0]
        assert abs(richardson - res.a_coefficient) / res.a_coefficient < 0.02

    def test_slope_law_exponential(self, exponential_well):
        quad = Quadrature.build(r_max=30.0, n=96, edges=[0, 1, 2, 4, 8, 16, 30])
        res = tb.resonance_data(exponential_well, quad)
        ks = (2e-3, 1e-3)
        slopes = [
            (1.0 - tb.mu_max(exponential_well, res.lambda_star, k, quad)) / k
            for k in ks
        ]
        richardson = 2.0 * slopes[1] - slopes[0]
        assert abs(richardson - res.a_coefficient) / res.a_coefficient < 0.02

    def test_slope_coefficient_grid_convergence(self, square_well, sw_quad, sw_resonance):
        fine = Quadrature.for_potential(square_well, n=128)
        res2 = tb.resonance_data(square_well, fine)
        rel = abs(res2.a_coefficient - sw_resonance.a_coefficient) / sw_resonance.a_coefficient
        assert rel < 1e-4


class TestWProbe:
    def test_compensated_product_near_one(self, square_well, sw_quad, sw_resonance):
        rows = tb.w_decomposition_probe(
            square_well, sw_resonance, [1e-2, 1e-3, 1e-4], sw_quad
        )
        for row in rows:
            assert 0.9 <= row.akw <= 1.1

    def test_remainder_bounded(self, square_well, sw_quad, sw_resonance):
        rows = tb.w_decomposition_probe(square_well, sw_resonance, [1e-3, 1e-4], sw_quad)
        ratio = rows[0].z_norm / rows[1].z_norm
        assert 0.5 <= ratio <= 2.0

    def test_below_threshold_uniformly_bounded(self, square_well, sw_quad, sw_resonance):
        lam = 0.5 * sw_resonance.lambda_star
        for k in (1e-2, 1e-3, 1e-4):
            mu = tb.mu_max(square_well, lam, k, sw_quad)
            assert 1.0 / (1.0 - mu) < 2.1


class TestClassification:
    def test_unbound_with_margin(self, square_well, sw_quad):
        cls = tb.classify_pair(square_well, 1.0, sw_quad, margin_epsilon=0.2,
                               resonance_tol=RESONANCE_TOL)
        assert cls.category is tb.PairClass.UNBOUND_WITH_MARGIN
        assert (1.0 + 0.2) * cls.mu1 < 1.0

    def test_resonant(self, square_well, sw_quad, sw_resonance):
        cls = tb.classify_pair(square_well, sw_resonance.lambda_star, sw_quad, 0.2, RESONANCE_TOL)
        assert cls.category is tb.PairClass.RESONANT

    def test_bound(self, square_well, sw_quad, sw_resonance):
        cls = tb.classify_pair(square_well, 2.0 * sw_resonance.lambda_star, sw_quad, 0.2,
                               RESONANCE_TOL)
        assert cls.category is tb.PairClass.BOUND
        assert cls.ground_energy < 0

    def test_unbound_without_margin(self, square_well, sw_quad, sw_resonance):
        lam = 0.99 * sw_resonance.lambda_star
        cls = tb.classify_pair(square_well, lam, sw_quad, margin_epsilon=0.2,
                               resonance_tol=RESONANCE_TOL)
        assert cls.category is tb.PairClass.UNBOUND_NO_MARGIN
