import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewbody.model import (
    CouplingConfig,
    MassSet,
    PotentialSpec,
    Quadrature,
    minimal_envelope_b1,
    pair_separation_coeffs,
    validate_requirements,
)
from fewbody.faddeev import hs_norm_K2
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

    def test_table_must_end_at_positive_radius(self):
        with pytest.raises(ValueError, match="positive radius"):
            PotentialSpec("tabulated", table=((0.0, 0.0),))

    def test_dilated(self):
        g = PotentialSpec("gaussian", depth=1.0, range=1.0)
        d = g.dilated(2.0)
        r = np.linspace(0, 3, 17)
        assert np.allclose(d.value(r), g.value(2.0 * r))

    def test_zero_depth_is_zero(self):
        assert PotentialSpec("gaussian", depth=0.0, range=1.0).is_zero()
        assert not PotentialSpec("gaussian", depth=1.0, range=1.0).is_zero()
        assert PotentialSpec("tabulated", table=((0.5, 0.0), (1.0, 0.0))).is_zero()


# wells of every kind; the tables have kinks, a constant head below their first
# radius and a jump to zero at their last
VOLUME_WELLS = [
    PotentialSpec("gaussian", depth=1.7, range=0.8),
    PotentialSpec("exponential", depth=0.6, range=2.5),
    PotentialSpec("square_well", depth=2.0, range=1.3),
    PotentialSpec("tabulated", table=((0.5, 2.0), (1.0, 0.5), (1.5, 1.2), (3.0, 0.0))),
    PotentialSpec("tabulated", table=((0.0, 1.0), (1.0, 0.25), (2.0, 0.75))),
]


def mp_volume(pot: PotentialSpec) -> mp.mpf:
    """4 pi int r^2 V(r) dr at 40 digits, V written out again in mpmath."""
    with mp.workdps(40):
        if pot.kind == "tabulated":
            (r0, v0), tab = pot.table[0], pot.table
            total = mp.mpf(v0) * mp.mpf(r0) ** 3 / 3
            for (a, va), (b, vb) in zip(tab, tab[1:]):
                a, va, b, vb = map(mp.mpf, (a, va, b, vb))
                total += mp.quad(lambda r: r * r * (va + (vb - va) * (r - a) / (b - a)), [a, b])
            return 4 * mp.pi * total
        d, a = mp.mpf(pot.depth), mp.mpf(pot.range)
        shape, upper = {
            "gaussian": (lambda r: mp.exp(-((r / a) ** 2)), mp.inf),
            "exponential": (lambda r: mp.exp(-r / a), mp.inf),
            "square_well": (lambda r: 1, a),
        }[pot.kind]
        return 4 * mp.pi * d * mp.quad(lambda r: r * r * shape(r), [0, upper])


class TestVolume:
    @pytest.mark.parametrize("pot", VOLUME_WELLS, ids=lambda p: p.kind)
    def test_matches_mpmath(self, pot):
        ref = mp_volume(pot)
        assert abs(pot.volume() - float(ref)) <= 1e-14 * float(ref)

    @pytest.mark.parametrize("pot", VOLUME_WELLS, ids=lambda p: p.kind)
    @pytest.mark.parametrize("alpha", [0.3, 1.7])
    def test_dilation_scales_by_alpha_cubed(self, pot, alpha):
        assert pot.dilated(alpha).volume() * alpha**3 == pytest.approx(pot.volume(), rel=1e-14, abs=0)

    def test_zero_well(self):
        assert PotentialSpec("exponential", depth=0.0, range=3.0).volume() == 0.0
        assert PotentialSpec("tabulated", table=((0.5, 0.0), (1.0, 0.0))).volume() == 0.0


# the volume wells plus a table that is its constant head alone
BS_WELLS = VOLUME_WELLS + [PotentialSpec("tabulated", table=((1.2, 0.7),))]


def mp_bs_hs2(pot: PotentialSpec) -> mp.mpf:
    """2 int V(s) W(s) ds, W(s) = int_0^s r^2 V(r) dr, at 40 digits, V written out
    again in mpmath.  W is a lower incomplete gamma function for the Gaussian
    and exponential wells, a quadrature split at the kinks below s otherwise.
    """
    with mp.workdps(40):
        if pot.kind == "tabulated":
            tab = [tuple(map(mp.mpf, p)) for p in pot.table]
            breaks = [mp.mpf(0)] + [r for r, _ in tab]

            def shape(r):
                if r <= tab[0][0]:
                    return tab[0][1]
                for (a, va), (b, vb) in zip(tab, tab[1:]):
                    if r <= b:
                        return va + (vb - va) * (r - a) / (b - a)
                return mp.mpf(0)

            def w(s):
                pts = [b for b in breaks if b < s] + [s]
                return mp.quad(lambda r: r * r * shape(r), pts, method="gauss-legendre")

            return 2 * mp.quad(lambda s: shape(s) * w(s), breaks, method="gauss-legendre")
        d, a = mp.mpf(pot.depth), mp.mpf(pot.range)
        if pot.kind == "square_well":
            return 2 * mp.quad(lambda s: d * d * s**3 / 3, [0, a])
        shape, w = {
            "gaussian": (lambda r: d * mp.exp(-((r / a) ** 2)),
                         lambda s: d * a**3 * mp.gammainc(1.5, 0, (s / a) ** 2) / 2),
            "exponential": (lambda r: d * mp.exp(-r / a),
                            lambda s: d * a**3 * mp.gammainc(3, 0, s / a)),
        }[pot.kind]
        return 2 * mp.quad(lambda s: shape(s) * w(s), [0, mp.inf])


class TestBsHs2:
    @pytest.mark.parametrize("pot", BS_WELLS, ids=lambda p: p.kind)
    def test_matches_mpmath(self, pot):
        assert pot.bs_hs2() == pytest.approx(float(mp_bs_hs2(pot)), rel=1e-14, abs=0)

    @pytest.mark.parametrize("pot", BS_WELLS, ids=lambda p: p.kind)
    @pytest.mark.parametrize("alpha", [0.3, 1.7])
    def test_dilation_scales_by_alpha_to_minus_four(self, pot, alpha):
        assert pot.dilated(alpha).bs_hs2() == pytest.approx(pot.bs_hs2() / alpha**4,
                                                             rel=1e-14, abs=0)


class TestMassesAndFrames:
    def test_mass_validation(self):
        with pytest.raises(ValueError):
            MassSet(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            MassSet(1.0, 1.0, math.inf)
        # finite masses whose reduced masses underflow to 0 or overflow to nan
        for m in (1e-300, 1e308):
            with pytest.raises(ValueError, match="reduced masses of pair 12"):
                MassSet(m, m, 1.0)

    def test_equal_masses_frame(self):
        # the (12) frame scales 1/sqrt(2 mu) and 1/sqrt(2 M): the separations'
        # coefficients in the (12)-frame coordinates
        P, Q = pair_separation_coeffs(MassSet(1, 1, 1), "13")
        assert pair_separation_coeffs(MassSet(1, 1, 1), "12") == pytest.approx((1.0, 0.0))
        assert np.isclose(Q, math.sqrt(3.0) / 2.0) and np.isclose(P, 0.5)

    def test_asymmetric_example(self):
        ms = MassSet(1, 2, 3)
        assert np.isclose(ms.mu("12"), 2.0 / 3.0)
        assert np.isclose(ms.big_m("12"), 3.0 / 2.0)
        P, _ = pair_separation_coeffs(ms, "12")
        _, Q = pair_separation_coeffs(ms, "13")
        assert np.isclose(P, 1.0 / math.sqrt(4.0 / 3.0))
        assert np.isclose(Q, 1.0 / math.sqrt(3.0))

    @given(m1=masses_st, m2=masses_st, m3=masses_st)
    @settings(max_examples=30, deadline=None)
    def test_swap_symmetry(self, m1, m2, m3):
        # swapping the pair members keeps the (12) coefficient 1/sqrt(2 mu) and
        # splits it between the (13) coefficients of x of the two labellings
        (pa, _), (pa13, qa13) = (pair_separation_coeffs(MassSet(m1, m2, m3), p)
                                 for p in ("12", "13"))
        (pb, _), (pb13, _) = (pair_separation_coeffs(MassSet(m2, m1, m3), p)
                              for p in ("12", "13"))
        assert np.isclose(pa, pb, rtol=1e-12)
        assert np.isclose(abs(pa13) + abs(pb13), pa, rtol=1e-12)
        assert qa13 != 0


class TestQuadrature:
    def test_weights_resolve_interval(self):
        q = Quadrature.build(r_max=12.0)
        assert np.all(np.diff(q.nodes) > 0)
        assert np.isclose(q.weights.sum(), 12.0, rtol=1e-12)



def hs_constants(pot12, pot23, masses):
    """c c' c~ of hs_norm_K2: its bound times 2^5 pi^4."""
    return hs_norm_K2(pot12, pot23, masses, 0.5).rhs * 2.0**5 * np.pi**4


class TestKernelConstants:
    # the volume constants c (the (12) well), c' = 2 pi and c~ (the (23) well)
    # enter hs_norm_K2's bound as one product
    def test_c_prime(self, square_well, gaussian_well, equal_masses):
        gamma = 1.0 / math.sqrt(2.0 * equal_masses.big_m("12"))
        c, c_tilde = square_well.volume(), gaussian_well.volume() / gamma**3
        assert np.isclose(hs_constants(square_well, gaussian_well, equal_masses) / (c * c_tilde),
                          2.0 * np.pi, rtol=1e-14)

    def test_c_zero_iff_zero_potential(self, gaussian_well, equal_masses):
        zero = PotentialSpec("gaussian", depth=0.0, range=1.0)
        assert hs_norm_K2(zero, gaussian_well, equal_masses, 0.5).rhs == 0.0
        assert hs_norm_K2(gaussian_well, gaussian_well, equal_masses, 0.5).rhs > 0.0

    def test_c_tilde_gaussian_plancherel(self, gaussian_well):
        # c~ is the volume integral pi^(3/2) over gamma^3
        masses = MassSet(1, 1, 1)
        gamma = 1.0 / math.sqrt(2.0 * masses.big_m("12"))
        c_tilde = hs_constants(gaussian_well, gaussian_well, masses) / (
            gaussian_well.volume() * 2.0 * np.pi)
        assert np.isclose(c_tilde, np.pi**1.5 / gamma**3, rtol=1e-9)
        # Plancherel cross-check through an explicit radial transform
        p = np.linspace(1e-4, 30.0, 6000)
        r = np.linspace(1e-6, 10.0, 8000)
        w = np.gradient(r)
        ghat = np.sqrt(2 / np.pi) / p * np.sum(
            w[None, :] * r[None, :] * np.sin(np.outer(p, r)) * np.sqrt(gaussian_well.value(r))[None, :],
            axis=1,
        )
        norm_sq = 4 * np.pi * np.trapezoid(p**2 * ghat**2, p)
        assert np.isclose(norm_sq / gamma**3, c_tilde, rtol=1e-5)

    def test_scale_covariance(self, gaussian_well, equal_masses):
        # V(r/s) multiplies the volume constant c by s^3
        wide = PotentialSpec("gaussian", depth=1.0, range=2.0)
        c1 = hs_constants(gaussian_well, gaussian_well, equal_masses)
        c2 = hs_constants(wide, gaussian_well, equal_masses)
        assert np.isclose(c2, 8.0 * c1, rtol=1e-9)

    def test_c_is_the_scaled_well_volume(self, gaussian_well):
        # the (12) well is passed already in its scaled coordinate, x = r / alpha:
        # c = int V(alpha x) d3x = volume / alpha^3, alpha = 1/sqrt(2 mu)
        m = make_model(MassSet(1.0, 0.7, 1.6), gaussian_well, (1.0, 1.0, 1.0))
        alpha = 1.0 / math.sqrt(2.0 * m.masses.mu("12"))
        gamma = 1.0 / math.sqrt(2.0 * m.masses.big_m("12"))
        assert m.scaled_potential("12").volume() == pytest.approx(np.pi**1.5 / alpha**3,
                                                                  rel=1e-14, abs=0)
        c = hs_constants(m.scaled_potential("12"), m.potential("23"), m.masses) / (
            2.0 * np.pi * np.pi**1.5 / gamma**3)
        assert c == pytest.approx(np.pi**1.5 / alpha**3, rel=1e-14, abs=0)


class TestValidation:
    def test_gaussian_envelope(self, equal_masses, gaussian_well):
        model = make_model(equal_masses, gaussian_well, (1.0, 1.0, 1.0))
        bad = validate_requirements(model, (1.0, 1.0))
        assert any(not c.passed and c.requirement == "envelope[12]" for c in bad)
        b1_min = minimal_envelope_b1(gaussian_well, 1.0)
        assert np.isclose(b1_min, np.exp(0.25), rtol=1e-6)
        good = validate_requirements(model, (b1_min * 1.0001, 1.0))
        assert all(c.passed for c in good if c.requirement == "envelope[12]")

    def test_v23_zero_fails(self, equal_masses, gaussian_well):
        zero = PotentialSpec("gaussian", depth=0.0, range=1.0)
        model = make_model(equal_masses, gaussian_well, (1, 1, 1))
        model = type(model)(model.masses, model.pot12, model.pot13, zero, model.couplings)
        rep = validate_requirements(model, (2.0, 1.0))
        assert any(c.requirement == "v23_nonzero" and not c.passed for c in rep)

    def test_negative_table_value_fails_sign_check(self, equal_masses, gaussian_well):
        tab = PotentialSpec("tabulated", table=((0.0, 1.0), (1.0, -0.1), (2.0, 0.0)))
        model = make_model(equal_masses, gaussian_well, (1, 1, 1))
        model = type(model)(model.masses, model.pot12, tab, model.pot23, model.couplings)
        rep = validate_requirements(model, (2.0, 1.0))
        assert any(c.requirement == "sign[13]" and not c.passed for c in rep)


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
