"""Exact distributions of angles and cosines between random sphere points.

For two points drawn independently and uniformly from the unit sphere in
d-dimensional space (d >= 2), the angle theta between them has density

    p(theta) = Gamma(d/2) / (Gamma(1/2) Gamma((d-1)/2)) * sin(theta)**(d-2)

on [0, pi], and the cosine c = cos(theta) follows a symmetric beta law
rescaled to [-1, 1]:

    p(c) = 1/2 * BetaPDF((1+c)/2; (d-1)/2, (d-1)/2).

Both laws hold for any rotation-invariant sampling about the query point
(balls, spheres, spherical Gaussians). The cosine has mean 0 and variance
(= non-central second moment) exactly 1/d, which is the moment identity
the estimators invert.

Special functions are evaluated in-package: log-gamma via the standard
library (a Lanczos-class implementation, cross-checked here through the
Legendre duplication identity) and the symmetric regularized incomplete
beta I_x(a, a), the only one the cosine law needs, via its continued
fraction (modified Lentz method), split at x = 1/2 by I_x(a, a) =
1 - I_{1-x}(a, a).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "angle_pdf",
    "cosine_pdf",
    "cosine_cdf",
    "cosine_moments",
    "legendre_identity_residual",
    "sample_cosines",
    "ks_statistic",
    "KS_CRITICAL_1PCT",
]

# One-sample Kolmogorov-Smirnov critical coefficient at significance 0.01:
# reject when the statistic exceeds KS_CRITICAL_1PCT / sqrt(n).
KS_CRITICAL_1PCT = 1.63


def _check_dim(d: int, minimum: int) -> int:
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise TypeError(f"dimension must be an integer, got {type(d).__name__}")
    if d < minimum:
        raise ValueError(f"dimension must be >= {minimum}, got {d}")
    return int(d)


def angle_pdf(theta, d: int):
    """Density of the angle between two uniform random points on a d-sphere.

    Accepts a scalar or array of angles in [0, pi]; requires d >= 2.
    """
    d = _check_dim(d, 2)
    t = np.asarray(theta, dtype=np.float64)
    if not np.all((t >= 0.0) & (t <= math.pi)):
        raise ValueError("theta must lie in [0, pi]")
    coef = math.exp(math.lgamma(d / 2) - math.lgamma(0.5) - math.lgamma((d - 1) / 2))
    out = coef * np.sin(t) ** (d - 2)
    return float(out) if np.ndim(theta) == 0 else out


def cosine_pdf(c, d: int):
    """Density of the cosine similarity of two uniform random sphere points.

    Symmetric about 0 on [-1, 1]; a beta density in (1+c)/2 with both shape
    parameters (d-1)/2. For d == 2 the density diverges at the endpoints
    (arcsine law) and +inf is returned there.
    """
    d = _check_dim(d, 2)
    cc = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if not np.all((cc >= -1.0) & (cc <= 1.0)):
        raise ValueError("cosine values must lie in [-1, 1]")
    a = (d - 1) / 2
    log_norm = -_log_beta(a) - math.log(2.0)
    # Evaluate through |c| so the symmetry pdf(c) == pdf(-c) holds bitwise.
    x = (1.0 - np.abs(cc)) / 2.0
    out = np.empty_like(x)
    edge = x == 0.0
    xi = x[~edge]
    out[~edge] = np.exp((a - 1.0) * (np.log(xi) + np.log1p(-xi)) + log_norm)
    if np.any(edge):
        if a < 1.0:
            edge_value = math.inf
        elif a == 1.0:
            edge_value = math.exp(log_norm)
        else:
            edge_value = 0.0
        out[edge] = edge_value
    return float(out[0]) if np.ndim(c) == 0 else out


def cosine_cdf(c, d: int):
    """Distribution function of the cosine law: I_{(1+c)/2}((d-1)/2, (d-1)/2).

    Exact endpoints: cdf(-1) = 0, cdf(0) = 1/2 (symmetry), cdf(1) = 1.
    """
    d = _check_dim(d, 2)
    cc = np.asarray(c, dtype=np.float64)
    if not np.all((cc >= -1.0) & (cc <= 1.0)):
        raise ValueError("cosine values must lie in [-1, 1]")
    a = (d - 1) / 2
    flat = np.ravel(cc)
    out = np.array([_reg_inc_beta(a, (1.0 + v) / 2.0) for v in flat])
    out = out.reshape(cc.shape)
    return float(out) if np.ndim(c) == 0 else out


def cosine_moments(d: int) -> tuple[float, float]:
    """Mean and variance of the cosine law: (0, 1/d). Defined for d >= 1."""
    d = _check_dim(d, 1)
    return 0.0, 1.0 / d


def legendre_identity_residual(x: float) -> float:
    """Relative residual of Gamma(x)Gamma(x+1/2) = 2**(1-2x) Gamma(1/2) Gamma(2x).

    A numerical self-test of the gamma implementation; raises OverflowError
    (range error) once 2x exceeds the gamma range.
    """
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    lhs = math.gamma(x) * math.gamma(x + 0.5)
    rhs = 2.0 ** (1.0 - 2.0 * x) * math.gamma(0.5) * math.gamma(2.0 * x)
    return abs(lhs - rhs) / abs(rhs)


def sample_cosines(d: int, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the cosine law, reproducible per seed.

    Uses the ratio-of-gammas construction of a symmetric beta variate,
    mapped to [-1, 1]; d == 1 degenerates to a fair coin on {-1, +1}.
    """
    d = _check_dim(d, 1)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if d == 1:
        return rng.integers(0, 2, size=n) * 2.0 - 1.0
    a = (d - 1) / 2
    g1 = rng.gamma(a, size=n)
    g2 = rng.gamma(a, size=n)
    return 2.0 * g1 / (g1 + g2) - 1.0


def ks_statistic(values, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic of ``values`` against ``cdf``.

    ``values`` must be finite and ``cdf`` must accept a sorted numpy
    array. The 1% critical band is KS_CRITICAL_1PCT / sqrt(n).
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < 1:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    f = np.asarray(cdf(x), dtype=np.float64)
    grid = np.arange(n + 1) / n
    d_plus = float(np.max(grid[1:] - f))
    d_minus = float(np.max(f - grid[:-1]))
    return max(d_plus, d_minus)


def _log_beta(a: float) -> float:
    """log B(a, a); doubling is exact, so this is lgamma(a) + lgamma(a) - lgamma(2a)."""
    return 2.0 * math.lgamma(a) - math.lgamma(a + a)


# Numerical Recipes (2nd ed., section 6.4): the continued fraction's
# tolerance and iteration limit, and Lentz's stand-in for a zero divisor.
_CF_EPS, _CF_MAX_ITER, _CF_TINY = 1e-14, 500, 1e-300


def _nonzero(v: float) -> float:
    """``v``, or _CF_TINY where it is too near zero to divide by; a NaN stays NaN."""
    return _CF_TINY if abs(v) < _CF_TINY else v


def _beta_cont_frac(a: float, x: float) -> float:
    """Continued fraction of I_x(a, a): one modified-Lentz update per partial numerator."""
    c, d = 1.0, 1.0 / _nonzero(1.0 - (a + a) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (a - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (a + a + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed for a={a}, x={x}")


def _reg_inc_beta(a: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, a).

    The fraction converges fast below (a+1)/(2a+2) = 1/2; above it, I_x = 1 - I_{1-x}.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x == 0.5:
        return 0.5
    front = math.exp(-_log_beta(a) + a * math.log(x) + a * math.log1p(-x))
    if x < 0.5:
        return front * _beta_cont_frac(a, x) / a
    return 1.0 - front * _beta_cont_frac(a, 1.0 - x) / a
