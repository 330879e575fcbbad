import itertools

import numpy as np
import pytest

from fewbody.model import (
    PAIRS,
    CouplingConfig,
    MassSet,
    ModelSpec,
    PotentialSpec,
    Quadrature,
)
from fewbody import cli
from fewbody import experiments as ex
from fewbody import twobody as tb
from fewbody import variational as vr

# threshold of the unit Gaussian well, pinned by the radial shooting oracle
# (shooting and the integral-operator route agree to ~1e-12)
GAUSS_LAMBDA_STAR = 2.684004650924483
SW_LAMBDA_STAR = np.pi**2 / 4.0
# threshold of the unit exponential well: first zero of J0 fixes it analytically
EXP_LAMBDA_STAR = 1.4457964907366963


def config_default(section: str, key: str):
    """The value the CLI gives section.key when a config leaves it out."""
    default, convert, _ = cli._KEYS[section, key]
    return convert(default)


RESONANCE_TOL = config_default("numerics", "resonance_tol")
# the (section, key) of the knobs a pair classification and the dichotomy take
CLASSIFY_KNOBS = (("numerics", "resonance_tol"), ("numerics", "radial_nodes"))
DICHOTOMY_KNOBS = tuple(("experiment", k) for k in (
    "energy_targets", "floor", "ceiling_factor", "scale_bracket")) + CLASSIFY_KNOBS


def knobs(keys, **given) -> dict:
    """{key: its config default} for each (section, key) of keys, updated by given."""
    return {key: config_default(section, key) for section, key in keys} | given


@pytest.fixture(scope="session")
def square_well():
    return PotentialSpec("square_well", depth=1.0, range=1.0)


@pytest.fixture(scope="session")
def gaussian_well():
    return PotentialSpec("gaussian", depth=1.0, range=1.0)


@pytest.fixture(scope="session")
def exponential_well():
    return PotentialSpec("exponential", depth=1.0, range=1.0)


@pytest.fixture(scope="session")
def sw_quad(square_well):
    return Quadrature.for_potential(square_well)


@pytest.fixture(scope="session")
def gauss_quad(gaussian_well):
    return Quadrature.for_potential(gaussian_well)


@pytest.fixture(scope="session")
def sw_resonance(square_well, sw_quad):
    return tb.resonance_data(square_well, sw_quad)


@pytest.fixture(scope="session")
def gauss_resonance(gaussian_well, gauss_quad):
    return tb.resonance_data(gaussian_well, gauss_quad)


@pytest.fixture(scope="session")
def equal_masses():
    return MassSet(1.0, 1.0, 1.0)


def make_model(masses, pot, couplings, eps=0.2):
    lam12, lam13, lam23 = couplings
    return ModelSpec(
        masses, pot, pot, pot,
        CouplingConfig(lam12, lam13, lam23, margin_epsilon=eps),
    )


def relabelled_models(masses):
    """One model in each of the six labellings of its particles.

    Masses, wells and couplings move together.  In the labelling of masses,
    each pair has its own Gaussian well (depth, range) and coupling (a
    multiple of GAUSS_LAMBDA_STAR).
    """
    wells = {"12": (1.0, 1.0), "13": (1.0, 1.3), "23": (1.0, 0.8)}
    couplings = {"12": 1.1, "13": 0.9, "23": 0.7}
    for perm in itertools.permutations(range(3)):
        old = ["".join(sorted(str(perm[int(k) - 1] + 1) for k in pair)) for pair in PAIRS]
        yield ModelSpec(
            MassSet(*(masses[k] for k in perm)),
            *(PotentialSpec("gaussian", *wells[pair]) for pair in old),
            CouplingConfig(*(couplings[pair] * GAUSS_LAMBDA_STAR for pair in old)),
        )


def bound_state_count(model, basis) -> int:
    """Variational levels below the HVZ bottom, counted as three-body ground does."""
    gs = vr.solve_ground(model, basis)
    return int(np.sum(gs.eigenvalues < vr.hvz_bottom(model) - ex.EPS_NUM))


@pytest.fixture(scope="session")
def gauss_model_factory(equal_masses, gaussian_well):
    def factory(scale: float, eps: float = 0.2) -> ModelSpec:
        lam = scale * GAUSS_LAMBDA_STAR
        return make_model(equal_masses, gaussian_well, (lam, lam, lam), eps)

    return factory
