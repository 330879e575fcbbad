import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as adaptive_quad

from fewbody.model import (
    MassSet, PotentialSpec, Quadrature, _gauss_legendre_panels, pair_separation_coeffs,
)
from fewbody import faddeev as fd
from fewbody import twobody as tb
from tests.conftest import GAUSS_LAMBDA_STAR, make_model, relabelled_models

masses_st = st.floats(min_value=0.1, max_value=20.0, allow_nan=False)


def scaled_well(pot, masses, pair):
    """pot in the pair's scaled internal coordinate x = r sqrt(2 mu)."""
    return pot.dilated(1.0 / math.sqrt(2.0 * masses.mu(pair)))


def operators(model, zs, **grid_kw):
    """One block operator per z of zs, for the extrapolation from other z than fd.THRESHOLD_Z."""
    return [fd.assemble_block_operator(model, z, **grid_kw) for z in zs]


class TestTFunction:
    @pytest.mark.parametrize("p,expected", [
        (0.0, -1.0), (0.25, -0.5), (1.0, 0.0), (4.0, 0.0),
    ])
    def test_values(self, p, expected):
        assert fd.t_function(p) == pytest.approx(expected, abs=1e-15)

    def test_vectorized(self):
        p = np.array([0.0, 0.5, 1.0, 2.0])
        out = fd.t_function(p)
        assert out.shape == p.shape
        assert np.all(out[p > 1.0] == 0.0)


class TestKinematics:
    @given(m1=masses_st, m2=masses_st, m3=masses_st)
    @settings(max_examples=25, deadline=None)
    def test_rotations_orthogonal(self, m1, m2, m3):
        masses = MassSet(m1, m2, m3)
        for row in ("12", "13", "23"):
            for col in ("12", "13", "23"):
                if row == col:
                    continue
                R = fd.kinematic_rotation(masses, row, col)
                assert np.max(np.abs(R @ R.T - np.eye(2))) < 1e-12

    def test_equal_mass_rotation(self):
        R = fd.kinematic_rotation(MassSet(1, 1, 1), "12", "23")
        assert np.allclose(np.abs(R), [[0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])

    def test_separation_coeffs_roundtrip(self):
        masses = MassSet(1.0, 2.0, 3.0)
        # the pair-12 separation in the 12 frame is just alpha * x, alpha = 1/sqrt(2 mu)
        P, Q = pair_separation_coeffs(masses, "12")
        assert np.isclose(P, 1.0 / math.sqrt(2.0 * masses.mu("12"))) and abs(Q) < 1e-14
        # the 23 separation carries the spectator scale gamma = 1/sqrt(2 M) on y
        P23, Q23 = pair_separation_coeffs(masses, "23")
        assert np.isclose(abs(Q23), 1.0 / math.sqrt(2.0 * masses.big_m("12")))


class TestDiagonalBlock:
    def test_reproduces_pair_kernel(self, gaussian_well):
        grid = fd.build_mixed_grid(gaussian_well, z=1.0, n_x=20)
        stack = fd.assemble_diagonal_block(gaussian_well, 1.3, 1.0, grid)
        for i, p in enumerate(grid.p_nodes[:5]):
            k = math.sqrt(p * p + 1.0)
            ref = tb.assemble_bs(gaussian_well, 1.3, k, grid.x_quad).matrix
            assert np.max(np.abs(stack[i] - ref)) < 1e-12

    @pytest.mark.parametrize("z", [0.0, 1e160])
    def test_z_needs_a_positive_finite_square(self, gaussian_well, z):
        # z = 1e160 squares to inf: the blocks would vanish (ARPACK's start vector)
        grid = fd.build_mixed_grid(gaussian_well, z=1.0, n_x=16)
        with pytest.raises(ValueError, match="z must be positive with a finite square"):
            fd.assemble_diagonal_block(gaussian_well, 1.0, z, grid)
        with pytest.raises(ValueError, match="z must be positive with a finite square"):
            fd.assemble_offdiagonal_block(MassSet(1, 1, 1), "12", "23", gaussian_well,
                                          gaussian_well, 1.0, 1.0, z, grid, grid)

    def test_zero_coupling(self, gaussian_well):
        grid = fd.build_mixed_grid(gaussian_well, z=0.5, n_x=16)
        stack = fd.assemble_diagonal_block(gaussian_well, 0.0, 0.5, grid)
        assert np.all(stack == 0.0)

    def test_norm_nonincreasing_in_z(self, gaussian_well, gauss_model_factory):
        m = gauss_model_factory(0.8)
        op1 = fd.assemble_block_operator(m, 0.1, n_x=20, n_p_per_panel=5)
        op2 = fd.assemble_block_operator(m, 0.2, n_x=20, n_p_per_panel=5)
        # operator norm of the diagonal block: the top eigenvalue over all fibers
        assert np.max(op1.spectra["12"][0]) >= np.max(op2.spectra["12"][0])

    @pytest.mark.parametrize("n_x,size", [(14, 20), (16, 20), (20, 20), (24, 24)])
    def test_radial_panels_take_four_nodes(self, gaussian_well, n_x, size):
        # five radial panels of at least 4 nodes: n_x below 20 runs on 20 nodes
        grid = fd.build_mixed_grid(gaussian_well, 1e-2, n_x, 4)
        assert grid.x_quad.nodes.size == size
        assert all(hi - lo >= 4 for (_, _, lo, hi) in grid.x_quad.panels)

    def test_symmetric_nonnegative_fibers(self, gaussian_well):
        grid = fd.build_mixed_grid(gaussian_well, z=0.3, n_x=20)
        stack = fd.assemble_diagonal_block(gaussian_well, 1.0, 0.3, grid)
        for i in range(stack.shape[0]):
            assert np.max(np.abs(stack[i] - stack[i].T)) < 1e-12
            assert np.min(stack[i]) >= 0.0


def rotated_gaussian_mixed_rep(R, eta_eff, tau, amp):
    """Analytic s-wave mixed representation of a rotated product Gaussian."""
    Q = R.T @ np.diag([eta_eff, tau]) @ R
    A, B, C = Q[0, 0], Q[0, 1], Q[1, 1]

    def H(r, p):
        pref = (2 * np.pi) ** -1.5 * (np.pi / C) ** 1.5 * amp
        return (
            pref
            * np.exp(-(A - B * B / C) * r**2)
            * np.exp(-(p**2) / (4 * C))
            * np.sinc(abs(B) * r * p / C / np.pi)
        )

    return H


class TestOffDiagonalBlock:
    def test_zero_coupling_gives_zero(self, gaussian_well):
        masses = MassSet(1, 1, 1)
        g = fd.build_mixed_grid(gaussian_well, z=0.5, n_x=16)
        B = fd.assemble_offdiagonal_block(
            masses, "12", "23", gaussian_well, gaussian_well, 0.0, 1.0, 0.5, g, g
        )
        assert np.all(B == 0.0)

    @pytest.mark.parametrize("masses", [MassSet(1, 1, 1), MassSet(1, 2, 3)])
    def test_against_analytic_rotation_oracle(self, masses):
        # rotated correlated Gaussians Fourier-transform in closed form, so
        # the whole coupling block reduces to a 1D resolvent integral
        eta, tau, z, lam = 0.5, 0.25, 0.5, 1.3
        row, col = "12", "23"
        pot = PotentialSpec("gaussian", depth=1.0, range=1.0)
        pr, pc = scaled_well(pot, masses, row), scaled_well(pot, masses, col)

        def wide_grid(p):  # the momentum panels of z, with the last one ending at 8
            edges = fd.momentum_edges(z)[:-1] + [8.0]
            pn, pw, _ = _gauss_legendre_panels(edges, [6] * (len(edges) - 1))
            return fd.MixedGrid(Quadrature.for_potential(p, n=24), pn, pw)

        g_r, g_c = wide_grid(pr), wide_grid(pc)
        B = fd.assemble_offdiagonal_block(
            masses, row, col, pr, pc, lam, lam, z, g_r, g_c, n_angle=48
        )
        s, q = g_c.x_quad.nodes, g_c.p_nodes
        chi = np.exp(-eta * s[None, :] ** 2) * (2 * tau) ** -1.5 * np.exp(
            -q[:, None] ** 2 / (4 * tau)
        )
        U_in = 4 * np.pi * s[None, :] * q[:, None] * chi
        vec = (
            np.sqrt(g_c.p_weights[:, None] * g_c.x_quad.weights[None, :]) * U_in
        ).ravel()
        U_out = (B @ vec).reshape(g_r.n_p, g_r.n_x) / np.sqrt(
            g_r.p_weights[:, None] * g_r.x_quad.weights[None, :]
        )

        R = fd.kinematic_rotation(masses, row, col)
        eta_eff = eta + 1.0 / (2.0 * pc.range**2)
        H = rotated_gaussian_mixed_rep(R, eta_eff, tau, math.sqrt(lam))
        v_row = np.sqrt(lam * pr.value(g_r.x_quad.nodes))
        peak = np.max(np.abs(U_out))
        rng = np.random.default_rng(5)
        checked = 0
        # beyond the input's momentum support the exact value is reached by
        # oscillatory cancellation the grid cannot resolve; compare there
        # against the output peak instead
        assert np.max(np.abs(U_out[g_r.p_nodes > 4.0, :])) < 2e-3 * peak
        while checked < 6:
            i = int(rng.integers(0, g_r.n_p))
            j = int(rng.integers(0, g_r.n_x))
            p, r = g_r.p_nodes[i], g_r.x_quad.nodes[j]
            if v_row[j] < 1e-8 or p > 4.0:
                continue
            kappa = math.sqrt(p * p + z * z)

            def f(rt):
                return tb.reduced_greens(kappa, r, rt) * 4 * np.pi * rt * p * H(rt, p)

            val = (
                adaptive_quad(f, 0, r, limit=200, epsabs=1e-14, epsrel=1e-12)[0]
                + adaptive_quad(f, r, 50.0, limit=200, epsabs=1e-14, epsrel=1e-12)[0]
            )
            val *= v_row[j]
            assert abs(U_out[i, j] - val) <= max(1e-3 * abs(val), 1e-5 * peak)
            checked += 1

    def test_transpose_symmetry(self, gaussian_well):
        masses = MassSet(1.0, 2.0, 3.0)
        pr, pc = scaled_well(gaussian_well, masses, "12"), scaled_well(gaussian_well, masses, "23")
        g_r = fd.build_mixed_grid(pr, 0.4, n_x=16, n_p_per_panel=4)
        g_c = fd.build_mixed_grid(pc, 0.4, n_x=16, n_p_per_panel=4)
        B = fd.assemble_offdiagonal_block(
            masses, "12", "23", pr, pc, 1.2, 0.7, 0.4, g_r, g_c
        )
        Bt = fd.assemble_offdiagonal_block(
            masses, "23", "12", pc, pr, 0.7, 1.2, 0.4, g_c, g_r
        )
        assert np.max(np.abs(Bt - B.T)) < 1e-12 * np.max(np.abs(B))

    def test_equal_mass_norm_symmetry(self, gaussian_well):
        masses = MassSet(1, 1, 1)
        g = fd.build_mixed_grid(gaussian_well, 0.3, n_x=16, n_p_per_panel=4)
        kw = dict(z=0.3, grid_row=g, grid_col=g)
        B1 = fd.assemble_offdiagonal_block(
            masses, "12", "23", gaussian_well, gaussian_well, 1.0, 1.0, **kw
        )
        B2 = fd.assemble_offdiagonal_block(
            masses, "12", "13", gaussian_well, gaussian_well, 1.0, 1.0, **kw
        )
        n1, n2 = np.linalg.norm(B1, 2), np.linalg.norm(B2, 2)
        assert abs(n1 - n2) / n1 < 1e-10

    @pytest.mark.parametrize("masses", [(1, 1, 1), (1, 2, 3)], ids=["equal", "unequal"])
    def test_angle_rule_converged(self, gaussian_well, masses):
        # the default 32-node angle rule against its doubling: agreement to 1e-4
        # of the largest entry
        masses = MassSet(*masses)
        pr, pc = scaled_well(gaussian_well, masses, "12"), scaled_well(gaussian_well, masses, "23")
        g_r = fd.build_mixed_grid(pr, 0.3, n_x=12, n_p_per_panel=4)
        g_c = fd.build_mixed_grid(pc, 0.3, n_x=12, n_p_per_panel=4)
        B32, B64 = (
            fd.assemble_offdiagonal_block(masses, "12", "23", pr, pc, 1.0, 1.0, 0.3, g_r, g_c,
                                          n_angle=n)
            for n in (32, 64)
        )
        assert np.max(np.abs(B32 - B64)) <= 1e-4 * np.max(np.abs(B64))


class TestContinuityAndBounds:
    def test_continuity_modulus(self, gauss_model_factory):
        m = gauss_model_factory(0.8)
        rows = fd.continuity_modulus_check(m, "12", "12", [(0.1, 0.2), (0.01, 0.02)], 64)
        rows += fd.continuity_modulus_check(
            m, "12", "23", [(0.1, 0.2), (0.01, 0.02)], 64, n_x=16, n_p_per_panel=4,
        )
        assert all(r.passed for r in rows)

    def test_hs_bound_all_z(self, gauss_model_factory):
        m = gauss_model_factory(0.8)
        for z in (1e-3, 1e-2, 1e-1, 1.0):
            res = fd.hs_norm_K2(m.scaled_potential("12"), m.potential("23"), m.masses, z)
            assert res.passed

    def test_hs_zero_v23(self, gaussian_well, equal_masses):
        zero = PotentialSpec("gaussian", depth=0.0, range=1.0)
        res = fd.hs_norm_K2(gaussian_well, zero, equal_masses, 0.5)
        assert res.lhs == 0.0

    @pytest.mark.parametrize("z", [1e-12, 1e-6, 1e-3, 3e-2, 0.25, 1.0, 1e3])
    def test_hs_momentum_integral_matches_mpmath(self, gaussian_well, equal_masses, z):
        # hs / bound = I(z) / (4 pi), with I the integral over t = sqrt(p) in (0, 1]
        res = fd.hs_norm_K2(gaussian_well, gaussian_well, equal_masses, z)
        with mp.workdps(40):
            zm = mp.mpf(z)
            kinks = sorted({p for p in (zm, mp.sqrt(zm), 10 * zm) if p < 1})
            ref = mp.quad(lambda t: 8 * mp.pi * t**5 * (1 / (zm + t) - 1 / (zm + 1)) ** 2
                          / mp.sqrt(t**4 + zm * zm), [0, *kinks, 1])
        assert res.lhs / res.rhs * 4 * np.pi == pytest.approx(float(ref), rel=1e-13, abs=0)

    # the (12) pair of an equal-mass model carries the unit well on its 64-node grid
    def test_subthreshold_margin(self, square_well, equal_masses):
        m = make_model(equal_masses, square_well, (1.0, 0.0, 0.0))
        rows = fd.subthreshold_bound_check(m, "12", [0.01, 0.1, 1.0], 64)
        assert all(r.passed for r in rows)

    def test_subthreshold_saturation_at_resonance(self, square_well, equal_masses,
                                                  sw_resonance):
        m = make_model(equal_masses, square_well, (sw_resonance.lambda_star, 0.0, 0.0))
        rows = fd.subthreshold_bound_check(m, "12", [1e-3, 1e-2], 64)
        assert all(not r.passed for r in rows)
        assert all(r.lhs > r.rhs for r in rows)  # saturated rows reported

    def test_subthreshold_zero_coupling(self, square_well, equal_masses):
        m = make_model(equal_masses, square_well, (0.0, 0.0, 0.0))
        rows = fd.subthreshold_bound_check(m, "12", [0.1], 64)
        assert all(r.passed for r in rows)

    def test_subthreshold_bound_pair_fails_precondition(self, square_well, equal_masses,
                                                        sw_resonance):
        # at z = 10 the bound pair's row meets its bound; the precondition fails it
        m = make_model(equal_masses, square_well, (2.0 * sw_resonance.lambda_star, 0.0, 0.0))
        rows = fd.subthreshold_bound_check(m, "12", [0.1, 10.0], 64)
        assert not any(r.passed for r in rows)
        assert rows[1].lhs <= rows[1].rhs



class TestGreen6:
    @pytest.mark.parametrize("xi", [0.5, 1.0, 10.0])
    def test_bound_holds(self, xi):
        row = fd.green6_bound_check([xi])[0]
        assert row.passed

    def test_large_xi_both_small(self):
        row = fd.green6_bound_check([10.0])[0]
        assert row.value < 1e-4 and row.bound < 1e-4

    # K_2(xi) / (8 pi^3 xi^2) at 40 digits (mpmath besselk)
    @pytest.mark.parametrize("xi,value", [
        (0.05, "1289.257035451702846814332215795257179013"),
        (0.5, "0.1217525023899106502345972554025463758642"),
        (1.0, "0.006550443460966795134830219082025950140723"),
        (10.0, "8.671557548136402078560431487096906660454e-10"),
        (30.0, "1.019951624424975308751924199361055173023e-19"),
        (80.0, "1.630618161168345430037147412365564013664e-42"),
        (100.0, "1.915025686922749836627058457990526199772e-51"),
    ])
    def test_matches_pinned_values(self, xi, value):
        assert fd.green6_bound_check([xi])[0].value == pytest.approx(float(value), rel=1e-14, abs=0)

    def test_invalid_xi(self):
        with pytest.raises(ValueError):
            fd.green6_bound_check([0.0])

    # from float64's smallest to its largest arguments: no xi raises or warns, a
    # side beyond float64's range is infinite, and every row with finite sides
    # passes as the 40-digit comparison does
    def test_extreme_xi_against_mpmath(self):
        xis = [1e-300, 1e-100, 1e-77, 1e-10, 700.0, 1400.0, 1500.0, 1e5, 1e160, 1e300, 1.7e308]
        rows = fd.green6_bound_check(xis)
        assert [math.isfinite(r.value) for r in rows] == [False, False] + [True] * 9
        with mp.workdps(40):
            for row in rows:
                x = mp.mpf(row.xi)
                exact = (mp.besselk(2, x) / (8 * mp.pi**3 * x**2)
                         <= 4 / (9 * mp.pi * x**4) * mp.exp(-x / 2))
                if math.isfinite(row.value) and math.isfinite(row.bound):
                    assert row.passed == exact, row.xi


class TestLogDivergence:
    def test_zero_function(self):
        zero = PotentialSpec("gaussian", depth=0.0, range=1.0)
        rows = fd.j_epsilon_divergence(zero, 1.0, [1e-1, 1e-2])
        assert all(r.j == 0.0 for r in rows)

    def test_gaussian_log_fit(self, gaussian_well):
        zs = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
        rows = fd.j_epsilon_divergence(gaussian_well, 1.0, zs)
        assert rows[0].r_squared > 0.99
        assert all(r.bound_holds for r in rows)
        # J ~ 4 pi |ghat(0)|^2 log(1/z): slope pinned by the L1 norm
        norm1 = np.pi**1.5
        slope = np.polyfit([np.log(1 / r.z) for r in rows], [r.j for r in rows], 1)[0]
        assert abs(slope - 4 * np.pi * norm1**2) / (4 * np.pi * norm1**2) < 0.05

    def test_rows_descend_for_any_well(self, gaussian_well):
        zero = PotentialSpec("gaussian", depth=0.0, range=1.0)
        for pot in (zero, gaussian_well):
            rows = fd.j_epsilon_divergence(pot, 1.0, [1e-2, 1e-1, 1e-3])
            assert [r.z for r in rows] == [1e-1, 1e-2, 1e-3]

    def test_wide_well_matches_closed_form(self):
        # the samples of g scale with its range: a range-20 Gaussian against
        # J = 4 pi int_0^eps0 p^2 ghat^2 / (p^2 + z^2)^(3/2), ghat = pi^(3/2) R^3 exp(-p^2 R^2 / 4)
        R, eps0, zs = 20.0, 1.0, [1.0, 1e-1, 1e-2, 1e-3]
        rows = fd.j_epsilon_divergence(PotentialSpec("gaussian", depth=1.0, range=R), eps0, zs)
        for z, j in ((r.z, r.j) for r in rows):
            with mp.workdps(30):
                ghat = lambda p: mp.pi**1.5 * R**3 * mp.exp(-p * p * R * R / 4)
                ref = 4 * mp.pi * mp.quad(lambda p: p * p * ghat(p) ** 2 / (p * p + z * z) ** 1.5,
                                          sorted({0, z, 4 * z, 1 / R, 4 / R, eps0}))
            assert j == pytest.approx(float(ref), rel=1e-8, abs=0)

    def test_monotone_in_eps0(self, gaussian_well):
        j1 = fd.j_epsilon_divergence(gaussian_well, 0.5, [1e-2])[0].j
        j2 = fd.j_epsilon_divergence(gaussian_well, 1.0, [1e-2])[0].j
        assert j2 >= j1


class TestFaddeevSolve:
    def test_zero_couplings_radius_zero(self, equal_masses, gaussian_well):
        m = make_model(equal_masses, gaussian_well, (0.0, 0.0, 0.0))
        assert fd.spectral_radius(m, 0.1, n_x=12, n_p_per_panel=4) == 0.0

    def test_single_pair_radius_zero(self, equal_masses, gaussian_well):
        m = make_model(equal_masses, gaussian_well, (1.0, 0.0, 0.0))
        assert fd.spectral_radius(m, 0.1, n_x=12, n_p_per_panel=4) == 0.0

    def test_radius_monotone_in_scale(self, gauss_model_factory):
        kw = dict(n_x=20, n_p_per_panel=5)
        r = [
            fd.spectral_radius(gauss_model_factory(s), 0.2, **kw)
            for s in (0.4, 0.8, 0.95)
        ]
        assert r[0] < r[1] < r[2]

    def test_radius_monotone_in_z(self, gauss_model_factory):
        kw = dict(n_x=20, n_p_per_panel=5)
        m = gauss_model_factory(0.8)
        r1 = fd.spectral_radius(m, 0.1, **kw)
        r2 = fd.spectral_radius(m, 0.4, **kw)
        assert r1 > r2

    def test_residual_and_perron(self, gauss_model_factory):
        op = fd.assemble_block_operator(gauss_model_factory(0.8), 0.1, n_x=20, n_p_per_panel=5)
        sol = fd.faddeev_solve(op)
        assert sol.residual < 1e-10
        mx = max(np.max(np.abs(v)) for v in sol.components.values())
        mn = min(np.min(v) for v in sol.components.values())
        assert mn >= -1e-3 * mx  # Perron vector non-negative up to discretization noise

    def test_supercritical_pair_raises(self, gauss_model_factory):
        with pytest.raises(fd.PairThresholdError):
            fd.spectral_radius(gauss_model_factory(1.5), 0.05, n_x=16, n_p_per_panel=4)

    def test_threshold_bracket_error(self, gauss_model_factory):
        # the bracket (0.05, 0.2) did not straddle the threshold: the radius is
        # still below one at its upper end, and the threshold lies above it
        kw = dict(n_x=16, n_p_per_panel=4)
        m = gauss_model_factory(1.0)
        assert fd.radius_at_zero(m.with_couplings(m.couplings.scaled(0.2)), **kw) < 1.0
        assert fd.bs_threshold_coupling(m, **kw) > 0.2

    def test_threshold_bisection_straddles(self, gauss_model_factory):
        kw = dict(n_x=16, n_p_per_panel=4)
        m = gauss_model_factory(1.0)
        s = fd.bs_threshold_coupling(m, **kw)
        lo = fd.radius_at_zero(m.with_couplings(m.couplings.scaled(s * (1 - 1e-3))), **kw)
        hi = fd.radius_at_zero(m.with_couplings(m.couplings.scaled(s * (1 + 1e-3))), **kw)
        assert lo < 1.0 < hi

    @pytest.mark.parametrize("masses", [(1.0, 0.7, 1.6), (1.0, 1.0, 2.0)],
                             ids=["unequal", "two-equal"])
    def test_relabeling_unequal_masses(self, masses):
        # relabel the particles: masses, wells and couplings move together, so
        # every pair frame and kinematic_rotation changes, yet the radius and s_z
        # agree to rounding (largest measured spread over the six labellings:
        # 3.1e-15 relative)
        results = []
        for model in relabelled_models(masses):
            op = fd.assemble_block_operator(model, 0.3, n_x=20, n_p_per_panel=3, n_angle=16)
            results.append([fd.faddeev_solve(op, scale=0.5).spectral_radius, fd.bound_scale(op)])
        results = np.array(results)
        assert 0.0 < results[0, 0] < 1.0
        np.testing.assert_allclose(results, np.tile(results[0], (6, 1)), rtol=1e-12, atol=0.0)


def reassembled_threshold(model, bracket, tol, zs, **grid_kw):
    """The threshold bisection with both blocks reassembled at every coupling scale."""

    def radius(s):
        scaled_model = model.with_couplings(model.couplings.scaled(s))
        return fd.extrapolated_radius(operators(scaled_model, zs, **grid_kw))

    lo, hi = bracket
    assert radius(lo) < 1.0 <= radius(hi), "bracket does not straddle 1"
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if radius(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def unequal_model(gaussian_well):
    # distinct couplings and masses: every block carries its own scale
    masses = MassSet(1.0, 1.6, 0.7)
    fractions = (0.75, 0.6, 0.85)
    lams = []
    for pair, f in zip(("12", "13", "23"), fractions):
        pot = scaled_well(gaussian_well, masses, pair)
        lams.append(f / tb.mu_max(pot, 1.0, 0.0, Quadrature.for_potential(pot)))
    return make_model(masses, gaussian_well, tuple(lams))


class TestCouplingScale:
    KW = dict(n_x=12, n_p_per_panel=4)

    @pytest.mark.parametrize("z", [0.1, 1e-2])
    def test_scaled_solve_matches_rescaled_model(self, unequal_model, z):
        op = fd.assemble_block_operator(unequal_model, z, **self.KW)
        for s in (0.4, 0.9, 1.1):
            sol = fd.faddeev_solve(op, scale=s)
            scaled = unequal_model.with_couplings(unequal_model.couplings.scaled(s))
            ref = fd.spectral_radius(scaled, z, **self.KW)
            assert sol.spectral_radius == pytest.approx(ref, rel=1e-12)
            assert sol.residual < 1e-10

    def test_supercritical_scale_raises(self, gauss_model_factory):
        op = fd.assemble_block_operator(gauss_model_factory(0.8), 0.05, **self.KW)
        fd.faddeev_solve(op, scale=1.2)  # pairs at 0.96 lam*: still below threshold
        with pytest.raises(fd.PairThresholdError):
            fd.faddeev_solve(op, scale=1.5)

    def test_threshold_equals_reassembled_bisection(self, gauss_model_factory):
        m = gauss_model_factory(0.9)
        zs = (2e-2, 5e-3)
        s = fd.threshold_scale(operators(m, zs, **self.KW))
        ref = reassembled_threshold(m, (0.7, 1.05), 1e-4, zs, **self.KW)
        assert abs(s - ref) <= 1e-4 * ref

    def test_extrapolation_matches_radius_at_zero(self, unequal_model):
        ops = fd.threshold_operators(unequal_model, **self.KW)
        scaled_model = unequal_model.with_couplings(unequal_model.couplings.scaled(1.1))
        ref = fd.radius_at_zero(scaled_model, **self.KW)
        assert fd.extrapolated_radius(ops, 1.1) == pytest.approx(ref, rel=1e-12)

    def test_zero_scale_is_the_zero_map(self, unequal_model):
        # no coupling left: radius 0, as for the zero-coupling model itself
        ops = fd.threshold_operators(unequal_model, **self.KW)
        sol = fd.faddeev_solve(ops[0], scale=0.0)
        assert sol.spectral_radius == 0.0 and sol.residual == 0.0
        assert all(not np.any(c) for c in sol.components.values())
        assert fd.extrapolated_radius(ops, 0.0) == 0.0
        zero = unequal_model.with_couplings(unequal_model.couplings.scaled(0.0))
        assert fd.radius_at_zero(zero, **self.KW) == 0.0

    @pytest.mark.parametrize("z", [0.1, 1e-2])
    def test_symmetric_solve_matches_iteration_map(self, unequal_model, z):
        op = fd.assemble_block_operator(unequal_model, z, **self.KW)
        for s in (0.4, 0.9, 1.1):
            ref = reference_radius(op, s)
            assert fd.faddeev_solve(op, scale=s).spectral_radius == pytest.approx(ref, rel=1e-12)

    def test_power_iteration_fallback(self, unequal_model, monkeypatch):
        op = fd.assemble_block_operator(unequal_model, 1e-2, **self.KW)
        lanczos = fd.faddeev_solve(op, scale=0.9)
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(kwargs)
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0))
            )

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        power = fd.faddeev_solve(op, scale=0.9)
        assert len(calls) == 1
        assert power.spectral_radius == pytest.approx(lanczos.spectral_radius, rel=1e-8)
        assert power.residual < 1e-8

    @given(s=st.floats(min_value=1e-3, max_value=1.5))
    @settings(max_examples=8, deadline=None)
    def test_blocks_linear_in_coupling_scale(self, unequal_model, s):
        # the scale= reuse rests on this: every block of the s-scaled model is s x the block
        kw = dict(n_x=8, n_p_per_panel=3)
        op = fd.assemble_block_operator(unequal_model, 0.05, **kw)
        scaled = unequal_model.with_couplings(unequal_model.couplings.scaled(s))
        op_s = fd.assemble_block_operator(scaled, 0.05, **kw)
        blocks = [(op.diagonal, op_s.diagonal), (op.offdiagonal, op_s.offdiagonal)]
        for unit, rescaled in blocks:
            assert unit.keys() == rescaled.keys()
            for key in unit:
                ref = s * unit[key]
                assert np.max(np.abs(rescaled[key] - ref)) <= 1e-13 * np.max(np.abs(ref))


def reference_threshold_bisection(ops, bracket, tol):
    """The former threshold search: bisect the extrapolated radius to one on the bracket."""
    lo, hi = bracket
    radius = fd.extrapolated_radius
    assert radius(ops, lo) < 1.0 <= radius(ops, hi), "bracket does not straddle 1"
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if radius(ops, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestThresholdEigensolve:
    # at fd.THRESHOLD_Z: the extrapolations of s_z and of the radius to z = 0
    # differ at second order in z (2.6e-6 relative at z = 2e-2, 5e-3)
    KW = dict(n_x=12, n_p_per_panel=4)
    BRACKET = {"equal": (0.6, 1.1), "unequal": (0.6, 1.15)}

    @pytest.fixture(scope="class", params=["equal", "unequal"])
    def case(self, request, gauss_model_factory, unequal_model):
        model = gauss_model_factory(0.9) if request.param == "equal" else unequal_model
        ops = fd.threshold_operators(model, **self.KW)
        return request.param, ops

    def test_matches_reference_bisection(self, case):
        name, ops = case
        s = fd.threshold_scale(ops)
        loose = reference_threshold_bisection(ops, self.BRACKET[name], 2e-4)
        assert abs(s - loose) <= 2e-4 * s
        tight = reference_threshold_bisection(ops, self.BRACKET[name], 1e-12)
        assert abs(s - tight) <= 1e-6 * s

    def test_radius_one_at_each_z(self, case):
        _, ops = case
        for op in ops:
            s_z = fd.bound_scale(op)
            assert fd.faddeev_solve(op, scale=s_z).spectral_radius == pytest.approx(1.0, abs=1e-12)
            # interlacing: the level binds before any pair reaches its own threshold
            assert all(s_z * np.max(op.spectra[p][0]) < 1.0 for p in op.pairs)

    def test_extrapolates_like_the_radius(self, case):
        _, ops = case
        (z2, z3), (s2, s3) = [op.z for op in ops], [fd.bound_scale(op) for op in ops]
        assert fd.threshold_scale(ops) == (z2 * s3 - z3 * s2) / (z2 - z3)

    def test_fewer_than_two_pairs_raises(self, equal_masses, gaussian_well):
        m = make_model(equal_masses, gaussian_well, (0.9 * GAUSS_LAMBDA_STAR, 0.0, 0.0))
        ops = fd.threshold_operators(m, **self.KW)
        with pytest.raises(fd.PairThresholdError, match="no three-body level"):
            fd.threshold_scale(ops)

    def test_power_iteration_fallback(self, unequal_model, monkeypatch):
        ops = fd.threshold_operators(unequal_model, **self.KW)
        lanczos = fd.threshold_scale(ops)
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(kwargs)
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0))
            )

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        assert fd.threshold_scale(ops) == pytest.approx(lanczos, rel=1e-8)
        assert len(calls) == 2


def reference_radius(op, scale):
    """The former solve: eigs on the iteration map (1 - s D)^-1 s B, fiber by fiber."""
    pairs = op.pairs
    bounds = np.cumsum([0] + [op.grids[p].dim for p in pairs])
    resolvents = {
        p: np.linalg.inv(np.eye(op.grids[p].n_x) - scale * op.diagonal[p]) for p in pairs
    }

    def matvec(v):
        out = np.zeros_like(v)
        for i, row in enumerate(pairs):
            acc = sum(
                op.offdiagonal[(row, col)] @ v[bounds[j] : bounds[j + 1]]
                for j, col in enumerate(pairs)
                if col != row
            )
            grid = op.grids[row]
            x = (scale * acc).reshape(grid.n_p, grid.n_x)
            out[bounds[i] : bounds[i + 1]] = np.einsum("pij,pj->pi", resolvents[row], x).ravel()
        return out

    n = int(bounds[-1])
    lin = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float)
    vals, _ = scipy.sparse.linalg.eigs(lin, k=1, which="LM", v0=np.ones(n), tol=1e-10, maxiter=2000)
    return float(abs(vals[0]))


def einsum_block(model, row, col, z, grid_row, grid_col, n_angle=32, mirror=True):
    """The cross block as it was assembled over whole tables: np.sinc tables, one
    optimized einsum, in-place folds and 0.5 (T + T^T) on a mirrored equal-fold block.

    mirror=False builds each side's own table and never symmetrizes."""
    R = fd.kinematic_rotation(model.masses, row, col)
    a, b, d = R[0, 0], R[0, 1], R[1, 1]
    mirrored = mirror and (np.array_equal(grid_row.p_nodes, grid_col.p_nodes)
                           and np.array_equal(grid_row.x_quad.nodes, grid_col.x_quad.nodes))
    u, wu = np.polynomial.legendre.leggauss(n_angle)
    P, Q, U = grid_row.p_nodes[:, None, None], grid_col.p_nodes[None, :, None], u[None, None, :]
    nu = np.sqrt(np.maximum((a * a * P**2 + Q**2 - 2.0 * d * P * Q * U) / (b * b), 0.0))
    D2 = (P**2 + Q**2 - 2.0 * d * P * Q * U) / (b * b) + z * z
    r, s = grid_row.x_quad.nodes, grid_col.x_quad.nodes
    SR = r * np.sinc(nu[..., None] * r / np.pi)
    if mirrored:
        SC = SR.transpose(1, 0, 2, 3)
    else:
        m = np.sqrt(np.maximum((a * a * Q**2 + P**2 - 2.0 * d * P * Q * U) / (b * b), 0.0))
        SC = s * np.sinc(m[..., None] * s / np.pi)
    coef = (P * Q / (np.pi * abs(b) ** 3)) * wu / D2
    T = np.einsum("pqur,pqus,pqu->prqs", SR, SC, coef, optimize=True)
    row_fold, col_fold = (
        np.sqrt(g.p_weights[:, None] * g.x_quad.weights * model.couplings.get(pair)
                * model.scaled_potential(pair).value(g.x_quad.nodes))
        for g, pair in ((grid_row, row), (grid_col, col))
    )
    T *= row_fold[:, :, None, None]
    T *= col_fold
    T = T.reshape(grid_row.dim, grid_col.dim)
    if mirrored and np.array_equal(row_fold, col_fold):
        T = 0.5 * (T + T.T)
    return T


def per_pair_blocks(model, z, n_x, n_p_per_panel, n_angle=32):
    """Blocks assembled pair by pair, each pair on its own grid: no content keys."""
    pairs = [p for p in ("12", "13", "23") if model.couplings.get(p) > 0]
    pots = {p: model.scaled_potential(p) for p in pairs}
    lams = {p: model.couplings.get(p) for p in pairs}
    grids = {p: fd.build_mixed_grid(pots[p], z, n_x, n_p_per_panel) for p in pairs}
    diagonal = {p: fd.assemble_diagonal_block(pots[p], lams[p], z, grids[p]) for p in pairs}
    offdiag = {}
    for i, row in enumerate(pairs):
        for col in pairs[i + 1 :]:
            offdiag[(row, col)] = fd.assemble_offdiagonal_block(
                model.masses, row, col, pots[row], pots[col], lams[row], lams[col],
                z, grids[row], grids[col], n_angle=n_angle,
            )
    return diagonal, offdiag


class TestContentKeyedBlocks:
    KW = dict(n_x=12, n_p_per_panel=4)
    UPPER = (("12", "13"), ("12", "23"), ("13", "23"))
    # (z, grid arguments): the tests' grid, and the cross-threshold workload's
    GRIDS = {"KW": (0.05, KW), "cross-threshold": (1e-3, dict(n_x=16, n_p_per_panel=4))}

    def test_equal_masses_share_one_buffer(self, gauss_model_factory):
        op = fd.assemble_block_operator(gauss_model_factory(0.8), 0.05, **self.KW)
        g, d, e = op.grids["12"], op.diagonal["12"], op.spectra["12"]
        assert all(op.grids[p] is g and op.diagonal[p] is d and op.spectra[p] is e
                   for p in ("13", "23"))
        B = op.offdiagonal[("12", "13")]
        for row, col in self.UPPER:
            assert op.offdiagonal[(row, col)] is B
            assert op.offdiagonal[(col, row)] is B
        assert op.fiber_groups == (op.pairs,)
        assert len(op.exchange_groups) == 1

    @pytest.mark.parametrize("row,col", UPPER)
    def test_mirrored_block_is_symmetric(self, row, col, gauss_model_factory):
        model = gauss_model_factory(0.8)
        op = fd.assemble_block_operator(model, 0.05, **self.KW)
        B = op.offdiagonal[(row, col)]
        assert np.array_equal(B, B.T)
        ref = einsum_block(model, row, col, 0.05, op.grids[row], op.grids[row], mirror=False)
        assert np.max(np.abs(B - ref)) <= 2e-16 * np.max(np.abs(ref))

    def test_unequal_masses_build_distinct_blocks(self, unequal_model):
        op = fd.assemble_block_operator(unequal_model, 0.05, **self.KW)
        assert len({id(op.offdiagonal[key]) for key in self.UPPER}) == 3
        assert len({id(op.diagonal[p]) for p in op.pairs}) == 3
        assert len({id(op.grids[p]) for p in op.pairs}) == 3

    # two-equal-masses: pairs 13 and 23 share a stack and a mirrored block,
    # and one unsymmetric block multiplies both of their components
    @pytest.fixture(params=["equal", "equal-masses-distinct-couplings", "unequal",
                            "two-equal-masses"])
    def model(self, request, equal_masses, gaussian_well, gauss_model_factory, unequal_model):
        lam = GAUSS_LAMBDA_STAR
        return {
            "equal": gauss_model_factory(0.8),
            "equal-masses-distinct-couplings": make_model(
                equal_masses, gaussian_well, (0.8 * lam, 0.7 * lam, 0.8 * lam)
            ),
            "unequal": unequal_model,
            "two-equal-masses": make_model(
                MassSet(1.0, 1.0, 2.0), gaussian_well, (0.8 * lam, 0.6 * lam, 0.6 * lam)
            ),
        }[request.param]

    def test_grouped_products_equal_per_pair_loops(self, model, unequal_model):
        op = fd.assemble_block_operator(model, 0.05, **self.KW)
        v = np.random.default_rng(0).standard_normal(op.dim())
        sl = op.slices()
        exchange = np.concatenate([
            sum(op.offdiagonal[(row, col)] @ v[sl[col]] for col in op.pairs if col != row)
            for row in op.pairs
        ])
        fibered = np.concatenate([
            np.einsum("pij,pj->pi", op.diagonal[p], v[sl[p]].reshape(op.grids[p].n_p, -1)).ravel()
            for p in op.pairs
        ])
        for got, want in ((fd._exchange(op, v), exchange),
                          (fd._fibered(op, op.diagonal, v), fibered)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            if model is unequal_model:  # no shared matrix: the per-pair operations exactly
                assert np.array_equal(got, want)

    def test_blocks_equal_per_pair_assembly(self, model):
        op = fd.assemble_block_operator(model, 0.05, **self.KW)
        diagonal, offdiag = per_pair_blocks(model, 0.05, **self.KW)
        for p in op.pairs:
            assert np.array_equal(op.diagonal[p], diagonal[p])
            vals, vecs = op.spectra[p]
            assert np.allclose(vecs @ (vals[..., None] * vecs.transpose(0, 2, 1)), diagonal[p],
                               rtol=0.0, atol=1e-14)
        for (row, col), B in offdiag.items():
            assert np.array_equal(op.offdiagonal[(row, col)], B)
            assert np.array_equal(op.offdiagonal[(col, row)], B.T)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_blocks_bit_identical_to_einsum_assembly(self, model, grid):
        z, kw = self.GRIDS[grid]
        op = fd.assemble_block_operator(model, z, **kw)
        pots = {p: model.scaled_potential(p) for p in op.pairs}
        lams = {p: model.couplings.get(p) for p in op.pairs}
        for row, col in self.UPPER:
            want = einsum_block(model, row, col, z, op.grids[row], op.grids[col])
            assert np.array_equal(op.offdiagonal[(row, col)], want)
            # the reverse orientation, assembled on its own
            got = fd.assemble_offdiagonal_block(
                model.masses, col, row, pots[col], pots[row], lams[col], lams[row], z,
                op.grids[col], op.grids[row],
            )
            assert np.array_equal(got, einsum_block(model, col, row, z, op.grids[col],
                                                    op.grids[row]))


@pytest.mark.parametrize("masses,n_x,n_p_per_panel", [
    ((1.0, 1.0, 1.0), 16, 4),  # the cross-threshold workload's grid
    ((1.0, 1.0, 1.0), 24, 6),  # criterion 6's grid
    ((1.0, 1.6, 0.7), 16, 4),  # unequal masses: a table per side
], ids=["equal-cross-threshold", "equal-criterion6", "unequal"])
def test_block_assembly_memory_budget(gaussian_well, masses, n_x, n_p_per_panel):
    # the sin tables and the block are the only buffers of their size: everything
    # else fits in six (n_p_row, n_p_col, n_angle) arrays
    model = make_model(MassSet(*masses), gaussian_well, (0.8 * GAUSS_LAMBDA_STAR,) * 3)
    z, n_angle = 1e-3, 32
    pots = [model.scaled_potential(p) for p in ("12", "13")]
    grids = [fd.build_mixed_grid(pot, z, n_x, n_p_per_panel) for pot in pots]
    tracemalloc.start()
    try:
        B = fd.assemble_offdiagonal_block(model.masses, "12", "13", *pots, 1.0, 1.0, z, *grids,
                                          n_angle=n_angle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mirrored = np.array_equal(grids[0].x_quad.nodes, grids[1].x_quad.nodes)
    assert mirrored == (masses == (1.0, 1.0, 1.0))
    angle_grid = grids[0].n_p * grids[1].n_p * n_angle * 8
    tables = angle_grid * (grids[0].n_x if mirrored else grids[0].n_x + grids[1].n_x)
    assert peak <= tables + B.nbytes + 6 * angle_grid
