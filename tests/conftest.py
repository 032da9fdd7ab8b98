import math

import pytest

from qubeam import build_block, exact_roots, make_params
from qubeam.params import _params_verdicts

# The reference point used throughout: red and violet photons, a weak field,
# and the production coupling.
FIG = (2500.0, 3000.0, 0.5, 0.1)


def in_set(kappa1, kappa2, omega, eps_rel=1.0):
    """The point (kappa1, kappa2, omega, eps) of make_params' set whose eps
    is eps_rel (at most 1) times the largest coupling the set admits there:
    0.01 (kappa1 - omega)^2 min(1, (kappa2 - kappa1)/kappa1), stepped down
    to the last float the coupling rule (the last row) accepts. Asserts
    that every rule accepts the point."""
    bound = 0.01 * (kappa1 - omega) * (kappa1 - omega)
    eps = min(bound, bound * (kappa2 - kappa1) / kappa1)
    while not _params_verdicts(kappa1, kappa2, omega, eps)[-1]:
        eps = math.nextafter(eps, 0.0)
    point = (kappa1, kappa2, omega, eps_rel * eps)
    assert all(_params_verdicts(*point)), point
    return point


@pytest.fixture(scope="session")
def fig_params():
    return make_params(*FIG)


@pytest.fixture(scope="session")
def fig_roots(fig_params):
    return exact_roots(fig_params)


@pytest.fixture(scope="session")
def fig_block(fig_params, fig_roots):
    return build_block(fig_roots, fig_params)
