"""Legendre functions of real degree and the geometric singularity thresholds.

P_nu is evaluated through the hypergeometric representation
P_nu(x) = F(-nu, nu+1; 1; (1-x)/2), summing the series until a term drops
below a relative truncation threshold.

The thresholds: beta solves P_{1/2}(cos(pi/beta)) = 0 (about 1.3771); a
conical vertex of aperture theta is singular when theta > pi/beta, and its
strength exponent nu in (0, 1/2) solves P_nu(cos(theta)) = 0.
"""

import math

_MAX_TERMS = 100_000


class SeriesError(ArithmeticError):
    """Hypergeometric series failed to converge within the iteration cap."""


def legendre_p(nu, x, rtol=1e-15):
    """Legendre function of the first kind of real degree nu, for x in (-1, 1]."""
    if x <= -1.0 or x > 1.0:
        raise ValueError(f"argument must lie in (-1, 1], got {x}")
    if x == 1.0:
        return 1.0
    z = 0.5 * (1.0 - x)
    total = 1.0
    term = 1.0
    for n in range(_MAX_TERMS):
        term *= (n - nu) * (n + nu + 1.0) / ((n + 1.0) * (n + 1.0)) * z
        total += term
        if abs(term) <= rtol * abs(total):
            return total
    raise SeriesError(f"Legendre series did not converge for nu={nu}, x={x}")


def _bisect(fn, lo, hi, tol):
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ArithmeticError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:g}, f(hi)={fhi:g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def find_beta(tol=1e-8, rtol=1e-15):
    """Threshold exponent beta with P_{1/2}(cos(pi/beta)) = 0.

    The bracket starts at 1.05 rather than 1 because the series degenerates
    logarithmically as cos(pi/beta) -> -1; the root (about 1.3771) is well
    inside.
    """
    return _bisect(lambda b: legendre_p(0.5, math.cos(math.pi / b), rtol), 1.05, 2.0, tol)


def find_nu(aperture, tol=1e-8, rtol=1e-15):
    """Conical singularity exponent for a vertex of the given aperture.

    Returns None when the aperture does not exceed pi/beta (no singularity);
    otherwise the degree nu in (0, 1/2) with P_nu(cos(aperture)) = 0.
    """
    if not 0.0 < aperture < math.pi:
        raise ValueError(f"aperture must lie in (0, pi), got {aperture}")
    beta = find_beta(tol, rtol)
    if aperture <= math.pi / beta:
        return None
    x = math.cos(aperture)
    return _bisect(lambda nu: legendre_p(nu, x, rtol), 1e-12, 0.5, tol)
