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
        assert np.isclose(rows[0].closed_form, 1.0 - math.exp(-2.0), rtol=1e-14)

    def test_quadrature_matches(self):
        for row in ex.merkuriev_spreading([1e-3, 1e-2, 1.0], 2.5):
            assert abs(row.closed_form - row.quadrature) < 1e-8

    def test_vanishing_binding_spreads(self):
        rows = ex.merkuriev_spreading([1e-1, 1e-2, 1e-3], 1.0)
        ps = [r.closed_form for r in rows]
        assert ps[0] > ps[1] > ps[2]
        assert ps[-1] < 2.1e-3

    def test_large_radius_captures_everything(self):
        row = ex.merkuriev_spreading([0.5], 1e4)[0]
        assert np.isclose(row.closed_form, 1.0, atol=1e-12)

    @given(
        k=st.floats(min_value=1e-4, max_value=10.0),
        r=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_probability_properties(self, k, r):
        row = ex.merkuriev_spreading([k], r)[0]
        assert 0.0 <= row.closed_form <= 1.0
        bigger = ex.merkuriev_spreading([k], 2.0 * r)[0]
        assert bigger.closed_form >= row.closed_form


class TestTheta0:
    def test_invalid_bracket_order(self, gauss_model_factory, tiny_basis):
        with pytest.raises(ex.BracketInvalidError):
            ex.find_theta0(gauss_model_factory(0.8), (2.0, 2.0), tiny_basis)

    def test_bracket_must_straddle(self, gauss_model_factory, tiny_basis):
        # both ends far below binding: no sign change to bisect
        m = gauss_model_factory(0.3)
        with pytest.raises(ex.BracketInvalidError):
            ex.find_theta0(m, (0.1, 0.2), tiny_basis)

    def test_finds_threshold(self, gauss_model_factory, tiny_basis):
        m = gauss_model_factory(0.7)  # vary pair 13 upward from 0.7 lam*
        lam = GAUSS_LAMBDA_STAR
        theta0 = ex.find_theta0(m, (0.7 * lam, 1.3 * lam), tiny_basis, tol=1e-3)
        e_below = vr.solve_ground(
            m.with_couplings(m.couplings.replace("13", 0.98 * theta0)), tiny_basis
        ).energy - vr.hvz_bottom(m.with_couplings(m.couplings.replace("13", 0.98 * theta0)))
        above = m.with_couplings(m.couplings.replace("13", 1.02 * theta0))
        e_above = vr.solve_ground(above, tiny_basis).energy - vr.hvz_bottom(above)
        assert e_below >= -ex.EPS_NUM and e_above < -ex.EPS_NUM

    def test_refinement_stability(self, gauss_model_factory, tiny_basis):
        m = gauss_model_factory(0.7)
        lam = GAUSS_LAMBDA_STAR
        t1 = ex.find_theta0(m, (0.7 * lam, 1.3 * lam), tiny_basis, tol=2e-3)
        t2 = ex.find_theta0(m, (0.7 * lam, 1.3 * lam), tiny_basis, tol=1e-3)
        assert abs(t2 - t1) <= 2e-3 * t1 + 1e-12


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
    KW = dict(n_x=12, n_p_per_panel=4, z_pair=(2e-2, 5e-3))

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
        assert sorted(calls) == sorted(self.KW["z_pair"])

    def test_scan_matches_fresh_solves(self, gauss_model_factory, tiny_basis):
        m = gauss_model_factory(0.8)
        report = ex.cross_validate(m, tiny_basis, scale_bracket=(0.9, 1.2), n_grid=2, **self.KW)
        grid_kw = {k: v for k, v in self.KW.items() if k != "z_pair"}
        for row in report.rows:
            scaled = m.with_couplings(m.couplings.scaled(row.scale))
            assert row.e_gr == vr.solve_ground(scaled, tiny_basis).energy
            ref = fd.radius_at_zero(scaled, self.KW["z_pair"], **grid_kw)
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
        scan = ex.efimov_scan(m, wide_basis)
        assert scan.count >= 1
        assert scan.levels[0] < -1e-5

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
        scan = ex.efimov_scan(m, wide_basis)
        assert scan.count >= 2
