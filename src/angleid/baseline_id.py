"""Distance-based reference estimators of local intrinsic dimensionality.

These are the standard expansion-rate estimators used for comparison:
the Hill maximum-likelihood estimator, a first-moment method-of-moments
estimator, and the generalized expansion dimension. All three consume
only neighbor distances, and only through ratios, so they are invariant
under rescaling of the data.
"""

from __future__ import annotations

from .core import IdEstimate
from .angle_id import _estimate, _estimates
from .neighbors import NeighborList

__all__ = ["mle_hill", "mom", "ged"]


def _one(tag: str, nl: NeighborList, pair=None) -> IdEstimate:
    """One estimate on one neighbor list, through the estimation core with B = 1."""
    est = _estimates(None, nl.distances[None], (tag,), [nl.k], pair)[tag]
    return _estimate(tag, *est, nl.k)


def mle_hill(nl: NeighborList) -> IdEstimate:
    """Hill/MLE estimate from the k-nearest-neighbor distance profile.

    value = -((1/(k-1)) * sum_{i<k} ln(d_i / d_k))**-1. When all distances
    are equal the log-sum is zero and the infinite estimate is reported as
    k with a degeneracy flag.
    """
    return _one("mle", nl)


def mom(nl: NeighborList) -> IdEstimate:
    """First-moment method-of-moments estimate: m / (w - m).

    m is the mean neighbor distance and w = d_k the neighborhood radius.
    For distances following an exact power law d_i = (i/k)**(1/m0) this
    converges to m0 as k grows. All distances equal means w == m and the
    infinite estimate is reported as k with a degeneracy flag.
    """
    return _one("mom", nl)


def ged(nl: NeighborList, pair: tuple[int, int] | None = None) -> IdEstimate:
    """Generalized expansion dimension from two neighbor counts.

    value = ln(k2/k1) / ln(d_k2/d_k1), i.e. the growth exponent of the
    neighbor count with the radius. The default pair is (ceil(k/2), k),
    a stable deterministic split; any 1-based pair k1 < k2 <= k can be
    passed instead. Equal radii at both counts degenerate to k.
    """
    return _one("ged", nl, pair)
