import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewbody.model import (
    CouplingConfig,
    MassSet,
    PotentialSpec,
    Quadrature,
    QuadratureUnderresolvedError,
    kernel_constants,
    make_jacobi_frame,
    minimal_envelope_b1,
    validate_requirements,
)
from tests.conftest import make_model

masses_st = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


class TestPotentialSpec:
    def test_values(self):
        g = PotentialSpec("gaussian", depth=2.0, range=1.5)
        assert g.value(0.0) == 2.0
        assert np.isclose(g.value(1.5), 2.0 * np.exp(-1.0))
        sw = PotentialSpec("square_well", depth=1.0, range=1.0)
        assert sw.value(0.999) == 1.0 and sw.value(1.001) == 0.0
        e = PotentialSpec("exponential", depth=1.0, range=2.0)
        assert np.isclose(e.value(2.0), np.exp(-1.0))

    def test_tabulated(self):
        t = PotentialSpec("tabulated", table=((0.0, 1.0), (1.0, 0.5), (2.0, 0.0)))
        assert t.value(0.5) == 0.75
        assert t.value(3.0) == 0.0
        assert t.range == 2.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PotentialSpec("gaussian", depth=-1.0)
        with pytest.raises(ValueError):
            PotentialSpec("gaussian", range=0.0)
        with pytest.raises(ValueError):
            PotentialSpec("tabulated", table=((1.0, 1.0), (0.5, 0.3)))
        with pytest.raises(ValueError):
            PotentialSpec("yukawa")

    def test_dilated(self):
        g = PotentialSpec("gaussian", depth=1.0, range=1.0)
        d = g.dilated(2.0)
        r = np.linspace(0, 3, 17)
        assert np.allclose(d.value(r), g.value(2.0 * r))

    def test_zero_depth_is_zero(self):
        assert PotentialSpec("gaussian", depth=0.0, range=1.0).is_zero()
        assert not PotentialSpec("gaussian", depth=1.0, range=1.0).is_zero()
        assert PotentialSpec("tabulated", table=((0.5, 0.0), (1.0, 0.0))).is_zero()


class TestMassesAndFrames:
    def test_mass_validation(self):
        with pytest.raises(ValueError):
            MassSet(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            MassSet(1.0, 1.0, math.inf)

    def test_equal_masses_frame(self):
        fr = make_jacobi_frame(MassSet(1, 1, 1), "12")
        assert np.isclose(fr.alpha, 1.0)
        assert np.isclose(fr.gamma, math.sqrt(3.0) / 2.0)

    def test_asymmetric_example(self):
        ms = MassSet(1, 2, 3)
        assert np.isclose(ms.mu("12"), 2.0 / 3.0)
        assert np.isclose(ms.big_m("12"), 3.0 / 2.0)
        fr = make_jacobi_frame(ms, "12")
        assert np.isclose(fr.alpha, 1.0 / math.sqrt(4.0 / 3.0))
        assert np.isclose(fr.gamma, 1.0 / math.sqrt(3.0))

    @given(m1=masses_st, m2=masses_st, m3=masses_st)
    @settings(max_examples=30, deadline=None)
    def test_swap_symmetry(self, m1, m2, m3):
        # swapping the pair members keeps alpha and splits alpha between the
        # two beta magnitudes
        fa = make_jacobi_frame(MassSet(m1, m2, m3), "12")
        fb = make_jacobi_frame(MassSet(m2, m1, m3), "12")
        assert np.isclose(fa.alpha, fb.alpha, rtol=1e-12)
        assert np.isclose(abs(fa.beta) + abs(fb.beta), fa.alpha, rtol=1e-12)
        assert fa.gamma != 0


class TestQuadrature:
    def test_weights_resolve_interval(self):
        q = Quadrature.build(r_max=12.0)
        assert np.all(np.diff(q.nodes) > 0)
        assert np.isclose(q.weights.sum(), 12.0, rtol=1e-12)

    def test_doubling_convergence(self, gaussian_well, gauss_quad, equal_masses):
        frame = make_jacobi_frame(equal_masses, "12")
        kc1 = kernel_constants(gaussian_well, gaussian_well, frame, gauss_quad)
        kc2 = kernel_constants(gaussian_well, gaussian_well, frame, gauss_quad.doubled())
        for f in ("c", "c_prime", "c_tilde"):
            a, b = getattr(kc1, f), getattr(kc2, f)
            assert abs(a - b) <= 1e-6 * max(abs(b), 1e-30)

    def test_underresolved_raises(self, gaussian_well, equal_masses):
        frame = make_jacobi_frame(equal_masses, "12")
        # 8 nodes on one panel: c moves by about 0.5 relative on doubling
        coarse = Quadrature.build(r_max=12.0, n=8, edges=[0.0, 12.0])
        with pytest.raises(QuadratureUnderresolvedError):
            kernel_constants(gaussian_well, gaussian_well, frame, coarse)


class TestKernelConstants:
    def test_c_prime(self, square_well, gaussian_well, sw_quad, equal_masses):
        frame = make_jacobi_frame(equal_masses, "12")
        kc = kernel_constants(square_well, gaussian_well, frame, sw_quad)
        assert np.isclose(kc.c_prime, 2.0 * np.pi, rtol=1e-8)

    def test_c_zero_iff_zero_potential(self, gaussian_well, sw_quad, equal_masses):
        frame = make_jacobi_frame(equal_masses, "12")
        zero = PotentialSpec("gaussian", depth=0.0, range=1.0)
        kc = kernel_constants(zero, gaussian_well, frame, sw_quad)
        assert kc.c == 0.0

    def test_c_tilde_gaussian_plancherel(self, gaussian_well, gauss_quad):
        # unit-gamma frame: c~ equals the volume integral pi^(3/2)
        frame = make_jacobi_frame(MassSet(1, 1, 1), "12")
        kc = kernel_constants(gaussian_well, gaussian_well, frame, gauss_quad)
        expected = np.pi**1.5 / frame.gamma**3
        assert np.isclose(kc.c_tilde, expected, rtol=1e-9)
        # Plancherel cross-check through an explicit radial transform
        p = np.linspace(1e-4, 30.0, 6000)
        r = np.linspace(1e-6, 10.0, 8000)
        w = np.gradient(r)
        ghat = np.sqrt(2 / np.pi) / p * np.sum(
            w[None, :] * r[None, :] * np.sin(np.outer(p, r)) * np.sqrt(gaussian_well.value(r))[None, :],
            axis=1,
        )
        norm_sq = 4 * np.pi * np.trapezoid(p**2 * ghat**2, p)
        assert np.isclose(norm_sq / frame.gamma**3, kc.c_tilde, rtol=1e-5)

    def test_scale_covariance(self, gaussian_well, equal_masses):
        # V(r/s) multiplies the volume constant by s^3
        frame = make_jacobi_frame(equal_masses, "12")
        wide = PotentialSpec("gaussian", depth=1.0, range=2.0)
        q1 = Quadrature.for_potential(gaussian_well)
        q2 = Quadrature.for_potential(wide)
        c1 = kernel_constants(gaussian_well, gaussian_well, frame, q1).c
        c2 = kernel_constants(wide, wide, frame, q2).c
        assert np.isclose(c2, 8.0 * c1, rtol=1e-9)


class TestValidation:
    def test_gaussian_envelope(self, equal_masses, gaussian_well):
        model = make_model(equal_masses, gaussian_well, (1.0, 1.0, 1.0))
        bad = validate_requirements(model, (1.0, 1.0))
        assert any(not c.passed and c.requirement == "envelope[12]" for c in bad.checks)
        b1_min = minimal_envelope_b1(gaussian_well, 1.0)
        assert np.isclose(b1_min, np.exp(0.25), rtol=1e-6)
        good = validate_requirements(model, (b1_min * 1.0001, 1.0))
        assert all(c.passed for c in good.checks if c.requirement == "envelope[12]")

    def test_v23_zero_fails(self, equal_masses, gaussian_well):
        zero = PotentialSpec("gaussian", depth=0.0, range=1.0)
        model = make_model(equal_masses, gaussian_well, (1, 1, 1))
        model = type(model)(model.masses, model.pot12, model.pot13, zero, model.couplings)
        rep = validate_requirements(model, (2.0, 1.0))
        assert any(c.requirement == "v23_nonzero" and not c.passed for c in rep.checks)

    def test_negative_table_value_fails_sign_check(self, equal_masses, gaussian_well):
        tab = PotentialSpec("tabulated", table=((0.0, 1.0), (1.0, -0.1), (2.0, 0.0)))
        model = make_model(equal_masses, gaussian_well, (1, 1, 1))
        model = type(model)(model.masses, model.pot12, tab, model.pot23, model.couplings)
        rep = validate_requirements(model, (2.0, 1.0))
        assert any(c.requirement == "sign[13]" and not c.passed for c in rep.checks)


class TestCouplingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CouplingConfig(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CouplingConfig(1.0, 1.0, 1.0, margin_epsilon=0.0)

    def test_replace_and_scale(self):
        c = CouplingConfig(1.0, 2.0, 3.0, margin_epsilon=0.5)
        assert c.replace("13", 7.0).lambda13 == 7.0
        s = c.scaled(2.0)
        assert (s.lambda12, s.lambda13, s.lambda23) == (2.0, 4.0, 6.0)
        assert s.margin_epsilon == 0.5


class TestActivePairs:
    def test_coupled_nonzero_wells_in_pair_order(self):
        pot = PotentialSpec("gaussian", depth=1.0, range=1.0)
        model = make_model(MassSet(1.0, 1.0, 1.0), pot, (0.5, 0.0, 2.0))
        assert model.active_pairs() == ["12", "23"]
        flat = PotentialSpec("gaussian", depth=0.0, range=1.0)
        model = type(model)(model.masses, flat, pot, pot, CouplingConfig(1.0, 1.0, 0.0))
        assert model.active_pairs() == ["13"]
