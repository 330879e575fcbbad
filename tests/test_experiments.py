import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewbody import experiments as ex
from fewbody import faddeev as fd
from fewbody import variational as vr
from tests.conftest import GAUSS_LAMBDA_STAR, make_model


@pytest.fixture(scope="module")
def tiny_basis(equal_masses):
    return vr.build_basis(
        vr.BasisSpec(0.3, 10.0, 6, 0.3, 60.0, 7, "frames"), equal_masses
    )


class TestMerkuriev:
    def test_closed_form_values(self):
        rows = ex.merkuriev_spreading([1.0], 1.0)
        assert np.isclose(rows[0].p_closed, 1.0 - math.exp(-2.0), rtol=1e-14)

    def test_quadrature_matches(self):
        for row in ex.merkuriev_spreading([1e-3, 1e-2, 1.0], 2.5):
            assert abs(row.p_closed - row.p_quadrature) < 1e-8

    def test_vanishing_binding_spreads(self):
        rows = ex.merkuriev_spreading([1e-1, 1e-2, 1e-3], 1.0)
        ps = [r.p_closed for r in rows]
        assert ps[0] > ps[1] > ps[2]
        assert ps[-1] < 2.1e-3

    def test_large_radius_captures_everything(self):
        row = ex.merkuriev_spreading([0.5], 1e4)[0]
        assert np.isclose(row.p_closed, 1.0, atol=1e-12)

    @given(
        k=st.floats(min_value=1e-4, max_value=10.0),
        r=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_probability_properties(self, k, r):
        row = ex.merkuriev_spreading([k], r)[0]
        assert 0.0 <= row.p_closed <= 1.0
        bigger = ex.merkuriev_spreading([k], 2.0 * r)[0]
        assert bigger.p_closed >= row.p_closed


def reference_bisection(energy, bracket, level, x_tol=0.0, e_tol=0.0):
    """The variational bisection the threshold searches ran before the pencil solve.

    Bisects energy(v) = level on the bracket, energy falling with v.  Stops
    at the midpoint once the bracket is narrower than x_tol * hi
    (find_theta0 and cross_validate used 1e-4), or at the first midpoint
    whose energy is within e_tol * |level| of level (the dichotomy used 2 %).
    """
    lo, hi = bracket
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hi - lo <= x_tol * hi:
            return mid
        e = energy(mid)
        if abs(e - level) <= e_tol * abs(level):
            return mid
        if e < level:
            hi = mid
        else:
            lo = mid
    raise AssertionError("reference bisection did not settle")


def energy_above_bottom(model, couplings, basis):
    m = model.with_couplings(couplings)
    return vr.solve_ground(m, basis).energy - vr.hvz_bottom(m)


@pytest.fixture
def matrix_builds(monkeypatch):
    """Counts hamiltonian_matrices builds, solve_ground's included."""
    calls = []
    build = vr.hamiltonian_matrices

    def counting(model, basis, *args, **kw):
        calls.append(model)
        return build(model, basis, *args, **kw)

    monkeypatch.setattr(vr, "hamiltonian_matrices", counting)
    return calls


class TestTheta0:
    def test_invalid_bracket_order(self, gauss_model_factory, tiny_basis):
        with pytest.raises(ex.BracketInvalidError, match="empty bracket"):
            ex.find_theta0(gauss_model_factory(0.8), (2.0, 2.0), tiny_basis)

    def test_bracket_must_straddle(self, gauss_model_factory, tiny_basis):
        # both ends far below binding: the level never reaches the target
        m = gauss_model_factory(0.3)
        with pytest.raises(ex.BracketInvalidError, match="still above"):
            ex.find_theta0(m, (0.1, 0.2), tiny_basis)

    def test_upper_end_short_of_threshold(self, gauss_model_factory, tiny_basis):
        # the level detaches at ~0.95 lam*, just past the upper end
        lam = GAUSS_LAMBDA_STAR
        with pytest.raises(ex.BracketInvalidError, match="still above"):
            ex.find_theta0(gauss_model_factory(0.7), (0.7 * lam, 0.9 * lam), tiny_basis)

    def test_lower_end_already_bound(self, gauss_model_factory, tiny_basis):
        # the other pairs at 0.9 lam*: bound already at the lower end, so
        # H - E is not positive definite there
        lam = GAUSS_LAMBDA_STAR
        with pytest.raises(ex.BracketInvalidError, match="already at or below"):
            ex.find_theta0(gauss_model_factory(0.9), (0.95 * lam, 0.99 * lam), tiny_basis)

    def test_pair_binding_first_moves_the_bottom(self, equal_masses, gaussian_well, tiny_basis):
        # pair 13 alone: the 3-body level only follows the pair's own bound
        # state down, so the bottom moves before any level detaches
        lam = GAUSS_LAMBDA_STAR
        m = make_model(equal_masses, gaussian_well, (0.0, 0.5 * lam, 0.0))
        with pytest.raises(ex.BracketInvalidError, match="HVZ bottom moved"):
            ex.find_theta0(m, (0.5 * lam, 1.5 * lam), tiny_basis)

    def test_finds_threshold(self, gauss_model_factory, tiny_basis):
        m = gauss_model_factory(0.7)  # vary pair 13 upward from 0.7 lam*
        lam = GAUSS_LAMBDA_STAR
        theta0 = ex.find_theta0(m, (0.7 * lam, 1.3 * lam), tiny_basis)
        e_below = vr.solve_ground(
            m.with_couplings(m.couplings.replace("13", 0.98 * theta0)), tiny_basis
        ).energy - vr.hvz_bottom(m.with_couplings(m.couplings.replace("13", 0.98 * theta0)))
        above = m.with_couplings(m.couplings.replace("13", 1.02 * theta0))
        e_above = vr.solve_ground(above, tiny_basis).energy - vr.hvz_bottom(above)
        assert e_below >= -ex.EPS_NUM and e_above < -ex.EPS_NUM

    def test_matches_reference_bisection(self, gauss_model_factory, tiny_basis):
        m = gauss_model_factory(0.7)
        lam = GAUSS_LAMBDA_STAR
        bracket = (0.7 * lam, 1.3 * lam)
        theta0 = ex.find_theta0(m, bracket, tiny_basis)
        ref = reference_bisection(
            lambda t: energy_above_bottom(m, m.couplings.replace("13", t), tiny_basis),
            bracket, -ex.EPS_NUM, x_tol=1e-4,
        )
        assert abs(theta0 - ref) <= 1e-4 * ref
        # the detachment point itself: the level sits at -EPS_NUM there
        e = energy_above_bottom(m, m.couplings.replace("13", theta0), tiny_basis)
        assert e == pytest.approx(-ex.EPS_NUM, rel=1e-4)

    def test_target_below_a_bound_pair(self, equal_masses, gaussian_well, tiny_basis):
        # pair 12 bound and fixed: the level detaches from the 2+1 threshold,
        # so the target is measured from that (negative) bottom
        lam = GAUSS_LAMBDA_STAR
        m = make_model(equal_masses, gaussian_well, (1.5 * lam, 0.0, 0.0))
        assert vr.hvz_bottom(m) < -0.1
        bracket = (1e-3, 0.99 * lam)
        theta0 = ex.find_theta0(m, bracket, tiny_basis)
        ref = reference_bisection(
            lambda t: energy_above_bottom(m, m.couplings.replace("13", t), tiny_basis),
            bracket, -ex.EPS_NUM, x_tol=1e-4,
        )
        assert abs(theta0 - ref) <= 1e-4 * ref

    def test_one_matrix_build(self, gauss_model_factory, tiny_basis, matrix_builds):
        lam = GAUSS_LAMBDA_STAR
        ex.find_theta0(gauss_model_factory(0.7), (0.7 * lam, 1.3 * lam), tiny_basis)
        assert len(matrix_builds) == 1


class TestDichotomyTargets:
    """Each row sits where its ground energy is the target below the HVZ bottom."""

    TARGETS = (1e-1, 1e-2, 1e-3)

    @pytest.fixture(scope="class")
    def margin_report(self, gauss_model_factory, tiny_basis):
        model = gauss_model_factory(0.8)
        return model, ex.spreading_dichotomy(
            ex.Scenario.NO_PAIR_RESONANCE, model, tiny_basis,
            energy_targets=self.TARGETS, scale_bracket=(0.9, 1.2),
        )

    @pytest.fixture(scope="class")
    def resonant_report(self, equal_masses, gaussian_well, tiny_basis):
        lam = GAUSS_LAMBDA_STAR
        model = make_model(equal_masses, gaussian_well, (lam, 0.99 * lam, 0.5 * lam), eps=0.05)
        return model, ex.spreading_dichotomy(
            ex.Scenario.PAIR_RESONANCE, model, tiny_basis, energy_targets=self.TARGETS[1:],
        )

    def test_rows_hit_targets(self, margin_report, resonant_report):
        for (_, report), targets in ((margin_report, self.TARGETS),
                                     (resonant_report, self.TARGETS[1:])):
            assert [row.e_gr for row in report.rows] == pytest.approx(
                [-t for t in targets], rel=1e-10, abs=0.0
            )

    def test_one_ball_build_per_call(self, gauss_model_factory, tiny_basis, monkeypatch):
        # P(R0) and P(3 R0) of every row come from one ball, whatever the row count
        radii = []
        build = vr.ball_overlap

        def counting(basis, R):
            radii.append(tuple(np.atleast_1d(R)))
            return build(basis, R)

        monkeypatch.setattr(vr, "ball_overlap", counting)
        report = ex.spreading_dichotomy(
            ex.Scenario.NO_PAIR_RESONANCE, gauss_model_factory(0.8), tiny_basis,
            energy_targets=self.TARGETS, scale_bracket=(0.9, 1.2),
        )
        assert len(report.rows) == len(self.TARGETS)
        assert radii == [(report.r0, 3.0 * report.r0)]

    def test_rows_are_fresh_solves(self, resonant_report, tiny_basis):
        model, report = resonant_report
        for row in report.rows:
            m = model.with_couplings(dataclasses.replace(
                model.couplings, lambda12=row.lambda12, lambda13=row.lambda13,
                lambda23=row.lambda23))
            gs = vr.solve_ground(m, tiny_basis)
            assert row.e_gr == gs.energy - vr.hvz_bottom(m)
            ball = vr.ball_matrices(tiny_basis, (report.r0, 3.0 * report.r0))
            p = vr.probability_inside(ball, gs.coefficients)
            assert (row.p_r0, row.p_r1) == (p[0], p[1])

    def test_within_old_tolerance_of_reference_bisection(self, margin_report, resonant_report,
                                                         tiny_basis):
        lam13 = resonant_report[0].couplings.lambda13
        for (model, report), knob, bracket, targets in (
            (margin_report, "scale", (0.9, 1.2), self.TARGETS),
            (resonant_report, "13", (1e-6 * lam13, lam13), self.TARGETS[1:]),
        ):
            def energy(v):
                c = model.couplings.scaled(v) if knob == "scale" \
                    else model.couplings.replace(knob, v)
                return energy_above_bottom(model, c, tiny_basis)

            for row, t in zip(report.rows, targets):
                ref = reference_bisection(energy, bracket, -t, e_tol=0.02)
                assert abs(energy(ref) - row.e_gr) <= 0.02 * t

    @pytest.mark.parametrize("scenario", list(ex.Scenario))
    def test_one_matrix_build(self, scenario, gauss_model_factory, equal_masses, gaussian_well,
                              tiny_basis, matrix_builds):
        lam = GAUSS_LAMBDA_STAR
        if scenario is ex.Scenario.NO_PAIR_RESONANCE:
            model = gauss_model_factory(0.8)
        else:
            model = make_model(equal_masses, gaussian_well, (lam, 0.99 * lam, 0.5 * lam),
                               eps=0.05)
        report = ex.spreading_dichotomy(scenario, model, tiny_basis,
                                        energy_targets=self.TARGETS[1:],
                                        scale_bracket=(0.9, 1.2))
        assert len(report.rows) == 2
        assert len(matrix_builds) == 1


class TestDichotomyGuards:
    def test_resonance_scenario_requires_resonant_pair(
        self, gauss_model_factory, tiny_basis
    ):
        with pytest.raises(ex.PairDriftError):
            ex.spreading_dichotomy(
                ex.Scenario.PAIR_RESONANCE,
                gauss_model_factory(0.8),
                tiny_basis,
                energy_targets=(1e-2,),
            )

    def test_bracket_error_when_target_unreachable(
        self, gauss_model_factory, tiny_basis
    ):
        # scale bracket pinned below binding: no point can reach the target
        with pytest.raises(ex.BracketInvalidError):
            ex.spreading_dichotomy(
                ex.Scenario.NO_PAIR_RESONANCE,
                gauss_model_factory(0.3),
                tiny_basis,
                energy_targets=(1e-1,),
                scale_bracket=(0.5, 1.0),
            )


class TestEfimovGuards:
    def test_needs_two_resonant_pairs(self, gauss_model_factory, tiny_basis):
        with pytest.raises(ex.PairDriftError):
            ex.efimov_scan(gauss_model_factory(0.8), tiny_basis)


class TestCrossValidateReuse:
    KW = dict(n_x=12, n_p_per_panel=4)

    @pytest.mark.parametrize("bracket,n_grid", [((0.9, 1.2), 2), ((0.95, 1.15), 3)])
    def test_one_assembly_per_z(self, gauss_model_factory, tiny_basis, monkeypatch,
                                bracket, n_grid):
        calls = []
        assemble = fd.assemble_block_operator

        def counting(model, z, **kw):
            calls.append(z)
            return assemble(model, z, **kw)

        monkeypatch.setattr(fd, "assemble_block_operator", counting)
        m = gauss_model_factory(0.8)
        report = ex.cross_validate(m, tiny_basis, scale_bracket=bracket, n_grid=n_grid, **self.KW)
        assert len(report.rows) == n_grid
        assert sorted(calls) == sorted(fd.THRESHOLD_Z)

    def test_variational_scale_matches_reference_bisection(self, gauss_model_factory,
                                                             tiny_basis, matrix_builds):
        m = gauss_model_factory(0.8)
        bracket = (0.9, 1.2)
        report = ex.cross_validate(m, tiny_basis, scale_bracket=bracket, n_grid=2, **self.KW)
        assert len(matrix_builds) == 1
        ref = reference_bisection(
            lambda s: energy_above_bottom(m, m.couplings.scaled(s), tiny_basis),
            bracket, -ex.EPS_NUM, x_tol=1e-4,
        )
        assert abs(report.variational_scale - ref) <= 1e-4 * ref

    @pytest.mark.parametrize("n_grid", [2, 3])
    def test_two_radius_solves_per_scan_point(self, gauss_model_factory, tiny_basis,
                                               monkeypatch, n_grid):
        # the coupled threshold is an eigensolve: only the scan rows solve for radii
        calls = []
        solve = fd.faddeev_solve

        def counting(op, **kw):
            calls.append(op.z)
            return solve(op, **kw)

        monkeypatch.setattr(fd, "faddeev_solve", counting)
        ex.cross_validate(gauss_model_factory(0.8), tiny_basis, scale_bracket=(0.9, 1.2),
                          n_grid=n_grid, **self.KW)
        assert len(calls) == 2 * n_grid

    @pytest.mark.parametrize("s_bs", [0.9, 1.2 * (1 + 1e-9), 2.0])
    def test_coupled_threshold_outside_bracket(self, gauss_model_factory, tiny_basis,
                                               monkeypatch, s_bs):
        monkeypatch.setattr(fd, "threshold_scale", lambda ops: s_bs)
        with pytest.raises(ex.BracketInvalidError, match="coupled-solver threshold"):
            ex.cross_validate(gauss_model_factory(0.8), tiny_basis, scale_bracket=(0.9, 1.2),
                              n_grid=2, **self.KW)

    def test_lower_end_already_bound(self, gauss_model_factory, tiny_basis):
        with pytest.raises(ex.BracketInvalidError, match="already at or below"):
            ex.cross_validate(gauss_model_factory(0.8), tiny_basis, scale_bracket=(1.2, 1.3),
                              n_grid=2, **self.KW)

    def test_scan_matches_fresh_solves(self, gauss_model_factory, tiny_basis):
        m = gauss_model_factory(0.8)
        report = ex.cross_validate(m, tiny_basis, scale_bracket=(0.9, 1.2), n_grid=2, **self.KW)
        for row in report.rows:
            scaled = m.with_couplings(m.couplings.scaled(row.scale))
            assert row.e_gr == vr.solve_ground(scaled, tiny_basis).energy
            ref = fd.radius_at_zero(scaled, **self.KW)
            assert row.bs_radius == pytest.approx(ref, rel=1e-12)


@pytest.fixture(scope="module")
def wide_basis(equal_masses):
    return vr.build_basis(
        vr.BasisSpec(0.25, 300.0, 12, 0.25, 2000.0, 14, "frames"), equal_masses
    )


class TestBorromeanDoubleResonance:
    def test_binds_with_all_pairs_unbound(self, equal_masses, gaussian_well, wide_basis):
        lam = GAUSS_LAMBDA_STAR
        m = make_model(equal_masses, gaussian_well, (lam, lam, 0.0), eps=0.05)
        rows = ex.efimov_scan(m, wide_basis)
        assert len(rows) >= 1
        assert rows[0].energy < -1e-5

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "with exactly two resonant pairs and equal masses the level ratio "
            "is ~4e6, so the second state sits near 1e-10 x depth: below the "
            "counting cutoff and beyond any realizable Gaussian ladder.  The "
            "accumulation is instead exhibited with a third sub-threshold "
            "pair, where the ratio is desk-sized (see the acceptance suite)."
        ),
    )
    def test_second_level_at_zero_third_coupling(
        self, equal_masses, gaussian_well, wide_basis
    ):
        lam = GAUSS_LAMBDA_STAR
        m = make_model(equal_masses, gaussian_well, (lam, lam, 0.0), eps=0.05)
        rows = ex.efimov_scan(m, wide_basis)
        assert len(rows) >= 2
