"""Aggregation of per-point estimates: histograms, stability trails, correlations."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (DataMatrix, DegenerateInputError, _adopt, _check_integer, _check_k_values,
                   _frozen, _write_csv)
# knn and direction_bundle are no longer called here; they stay importable
# as analysis.knn and analysis.direction_bundle because the benchmark
# tracer (bench/spans.py) patches those names.
from .neighbors import direction_bundle, knn  # noqa: F401

__all__ = [
    "Histogram",
    "TrailMatrix",
    "histogram",
    "trails",
    "pearson",
    "spearman",
    "write_histogram_csv",
    "write_trails_csv",
]


@dataclass(frozen=True, eq=False)
class Histogram:
    """Integer counts over half-open bins [left, right).

    Value v falls into bin floor((v - origin) / bin_width); only occupied
    bins are stored.
    """

    bin_width: float
    origin: float
    counts: dict[int, int]
    n_total: int

    def mode_bin(self) -> int:
        """Index of the fullest bin; ties resolve to the lowest index."""
        best = max(self.counts.values())
        return min(b for b, c in self.counts.items() if c == best)

    def mode_center(self) -> float:
        return self.origin + (self.mode_bin() + 0.5) * self.bin_width

    def bin_of(self, value: float) -> int:
        return int(np.floor((value - self.origin) / self.bin_width))


def histogram(values, bin_width: float, origin: float = 0.0) -> Histogram:
    """Exact integer histogram with deterministic edge assignment.

    Raises ValueError for empty or non-finite input, a bin width that is
    not positive and finite, a non-finite origin, and a value whose bin
    index does not fit in int64.
    """
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    if not math.isfinite(origin):
        raise ValueError(f"origin must be finite, got {origin}")
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot histogram empty input")
    if not np.isfinite(x).all():
        raise ValueError("cannot histogram non-finite values")
    with np.errstate(over="ignore"):
        pos = np.floor((x - origin) / bin_width)
    # int64 holds [-2**63, 2**63), and both bounds are exact doubles.
    outside = np.flatnonzero(~((pos >= -2.0**63) & (pos < 2.0**63)))
    if outside.size:
        raise ValueError(f"bin index of value {float(x[outside[0]])!r} does not fit in int64 "
                         f"(bin_width {bin_width}, origin {origin})")
    idx = pos.astype(np.int64)
    bins, counts = np.unique(idx, return_counts=True)
    return Histogram(
        float(bin_width),
        float(origin),
        {int(b): int(c) for b, c in zip(bins, counts)},
        int(x.size),
    )


@dataclass(frozen=True, eq=False)
class TrailMatrix:
    """Per-point estimate trails across neighborhood sizes.

    ``estimates[i, j]`` is the estimate for point ``point_indices[i]`` at
    neighborhood size ``k_values[j]``; ``estimates`` is read-only. A
    caller's input is copied and checked; ``trails`` hands over its own
    checked values (``core._adopt``).
    """

    k_values: tuple[int, ...]
    estimates: np.ndarray
    estimator: str
    point_indices: tuple[int, ...]

    def __post_init__(self):
        ks = tuple(map(int, self.k_values))
        if not all(map(operator.lt, ks, ks[1:])):
            raise ValueError("k_values must be strictly increasing")
        est = _frozen(self.estimates, np.float64)
        if est.shape != (len(self.point_indices), len(ks)):
            raise ValueError("estimates must be (n_points, n_k)")
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "point_indices", tuple(map(int, self.point_indices)))

    def column(self, k: int) -> np.ndarray:
        """The estimates at ``k``, an integer under the package's rule (not a bool or a float)."""
        j = _check_integer("k", k)
        if j not in self.k_values:
            raise ValueError(f"k = {k!r} is not among the trail's k values {self.k_values}")
        return self.estimates[:, self.k_values.index(j)]


def trails(
    data: DataMatrix,
    k_values,
    estimator: str,
    point_subset=None,
    ged_pair: tuple[int, int] | None = None,
    threads: int = 1,
) -> TrailMatrix:
    """One estimator evaluated per (point, k) over ascending k values.

    Each point gets a single neighbor search at the largest k; smaller
    neighborhoods are its sorted prefixes, so trails are consistent by
    construction. The matrix keeps the neighbor lists of a small enough
    point set (``angle_id._estimate_many``), so trails of another
    estimator on the same points, in the same order, at k values no
    larger, search nothing: ABID and then MLE trails search once. Trails
    run through the same estimation core as tables
    (``angle_id._estimates``), on blocks of points at every k at once.
    The trail of a point is one pass: its directions are computed once,
    and ABID/RABID read every k off running sums of the squared cosines
    (``angle_id._sq_sums``), O(k_max * D * min(D, k_max)) per point
    however many k values are asked for. MLE and MoM read every k off
    running sums of the weighted distance increments, O(k_max) per point
    (see ``angle_id._estimates``), and GED reads two distances per k.
    Every entry is bitwise equal to ``estimate_table`` at the same k;
    ABID/RABID agree with the explicit pairwise-cosine sums to 1e-13
    relative, and MLE/MoM with the per-k formulas to 8 k eps.

    Points are mapped in blocks by ``angle_id._estimate_many``, the same
    query map as tables. The k values and ``ged_pair`` must pass
    ``_check_k_values``, ``point_subset`` must be a non-empty collection of
    integer point indices and ``threads`` a positive integer; otherwise a
    ValueError is raised before any neighbor search (an index outside
    [0, n) raises an IndexError).
    """
    from . import angle_id  # here, so a histogram alone never loads the estimators

    tags = angle_id._check_tags([estimator])
    ks = _check_k_values(k_values, tags, ged_pair)
    rows, names = angle_id._query_rows(data, point_subset, "point_subset")
    est, _ = angle_id._estimate_many(data, rows, names, tags, ks, ged_pair, threads)
    return _adopt(TrailMatrix, k_values=tuple(ks), estimates=est[estimator][0],
                  estimator=estimator, point_indices=tuple(names))


def pearson(a, b) -> float:
    """Product-moment correlation; undefined for constant inputs.

    Each input is divided by its largest magnitude before centering, so
    finite data at any scale neither underflows nor overflows.
    """
    x, y = _paired(a, b)
    sx, sy = np.abs(x).max(), np.abs(y).max()
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("correlation is undefined for constant input")
    dx, dy = x / sx, y / sy
    dx -= dx.mean()
    dy -= dy.mean()
    sx2 = float((dx * dx).sum())
    sy2 = float((dy * dy).sum())
    if sx2 == 0.0 or sy2 == 0.0:
        raise DegenerateInputError("correlation is undefined for constant input")
    # sqrt(sx2 * sy2) keeps r == +-1.0 exact for b == +-a.
    r = float((dx * dy).sum()) / math.sqrt(sx2 * sy2)
    return min(max(r, -1.0), 1.0)


def spearman(a, b) -> float:
    """Rank correlation with ties assigned their average rank."""
    x, y = _paired(a, b)
    return pearson(_average_ranks(x), _average_ranks(y))


def _paired(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least two pairs")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("cannot correlate non-finite values")
    return x, y


def _average_ranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    # Group occupying sorted positions starts..ends-1 gets rank (starts+1+ends)/2.
    return ((starts + ends + 1) / 2.0)[inverse]


def write_histogram_csv(hist: Histogram, path, delimiter: str = ",") -> None:
    """Serialize occupied bins as (bin_left, count) rows with a header."""
    bins = sorted(hist.counts)
    lefts = hist.origin + np.array(bins) * hist.bin_width
    rows = np.column_stack([lefts, [hist.counts[b] for b in bins]])
    _write_csv(path, rows, delimiter, ["bin_left", "count"])


def write_trails_csv(tm: TrailMatrix, path, delimiter: str = ",") -> None:
    """Serialize trails as one row per point under a k-valued header."""
    rows = np.column_stack([tm.point_indices, tm.estimates])
    _write_csv(path, rows, delimiter, ["index"] + [f"k{k}" for k in tm.k_values])
