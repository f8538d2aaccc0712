import math

import numpy as np
import pytest

from axmaxwell import special

LEGENDRE_POLY = {
    0: lambda x: 1.0,
    1: lambda x: x,
    2: lambda x: 0.5 * (3 * x * x - 1),
    3: lambda x: 0.5 * (5 * x ** 3 - 3 * x),
}


def test_integer_degrees_match_polynomials(rng):
    xs = rng.uniform(-0.99, 1.0, size=100)
    for n, poly in LEGENDRE_POLY.items():
        for x in xs:
            assert special.legendre_p(n, x) == pytest.approx(poly(x), abs=1e-12, rel=1e-12)


def test_value_at_one():
    for nu in (0.3, 0.5, 1.7, 4.0):
        assert special.legendre_p(nu, 1.0) == 1.0


def test_derivative_identity_on_grid():
    h = 1e-6
    for nu in (0.25, 0.5, 1.5):
        for x in np.linspace(-0.9, 0.9, 13):
            fd = (special.legendre_p(nu, x + h) - special.legendre_p(nu, x - h)) / (2 * h)
            ident = nu * (special.legendre_p(nu - 1, x) - x * special.legendre_p(nu, x)) / (1 - x * x)
            assert ident == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_find_beta():
    beta = special.find_beta()
    assert beta == pytest.approx(1.3771, abs=5e-4)
    assert math.pi / beta == pytest.approx(2.2816, abs=1e-3)
    assert abs(special.legendre_p(0.5, math.cos(math.pi / beta))) <= 1e-8


def test_find_beta_truncation_invariance():
    assert abs(special.find_beta(rtol=1e-15) - special.find_beta(rtol=5e-16)) <= 1e-8


def test_find_nu_below_threshold():
    assert special.find_nu(math.pi / 2) is None


def test_find_nu_near_threshold():
    beta = special.find_beta()
    nu = special.find_nu(math.pi / beta + 1e-3)
    assert nu is not None
    assert abs(nu - 0.5) <= 0.05


def test_find_nu_against_dense_scan():
    aperture = 2.8
    nu = special.find_nu(aperture)
    x = math.cos(aperture)
    grid = np.arange(1e-4, 0.5, 1e-4)
    vals = np.array([special.legendre_p(g, x, rtol=1e-12) for g in grid])
    sign_change = np.where(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert len(sign_change) == 1
    root_lo, root_hi = grid[sign_change[0]], grid[sign_change[0] + 1]
    assert root_lo <= nu <= root_hi


def test_argument_range_errors():
    with pytest.raises(ValueError):
        special.legendre_p(0.5, -1.0)
    with pytest.raises(ValueError):
        special.legendre_p(0.5, 1.1)
    with pytest.raises(ValueError):
        special.find_nu(3.5)
    with pytest.raises(ValueError):
        special.find_nu(0.0)
