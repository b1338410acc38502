"""Aggregation of per-point estimates: histograms, stability trails, correlations."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ANGLE_TAGS, MIN_K, DataMatrix, DegenerateInputError, _fmt
# knn and direction_bundle are no longer called here; they stay importable
# as analysis.knn and analysis.direction_bundle because the benchmark
# tracer (bench/spans.py) patches those names.
from .neighbors import _directions, _map_neighbors, direction_bundle, knn  # noqa: F401
from . import angle_id

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
    """Exact integer histogram with deterministic edge assignment."""
    if not bin_width > 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot histogram empty input")
    idx = np.floor((x - origin) / bin_width).astype(np.int64)
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
    neighborhood size ``k_values[j]``.
    """

    k_values: tuple[int, ...]
    estimates: np.ndarray
    estimator: str
    point_indices: tuple[int, ...]

    def __post_init__(self):
        ks = tuple(int(k) for k in self.k_values)
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("k_values must be strictly increasing")
        est = np.asarray(self.estimates, dtype=np.float64)
        if est.shape != (len(self.point_indices), len(ks)):
            raise ValueError("estimates must be (n_points, n_k)")
        est.setflags(write=False)
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "point_indices", tuple(int(i) for i in self.point_indices))

    def column(self, k: int) -> np.ndarray:
        return self.estimates[:, self.k_values.index(k)]


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
    construction. Trails run through the same estimation core as tables
    (``angle_id._estimates``), on blocks of points at every k at once.
    The trail of a point is one pass: its directions are computed once,
    and ABID/RABID read every k off running sums of the squared cosines
    (``angle_id._sq_sums``), O(k_max * D * min(D, k_max)) per point
    however many k values are asked for. MLE, MoM and GED run on each
    distance prefix. Every entry is bitwise equal to ``estimate_table``
    at the same k, and ABID/RABID agree with the explicit pairwise-cosine
    sums to 1e-13 relative.

    The k values must be distinct integers, at least the estimator's
    minimum (``core.MIN_K``; with ``ged_pair`` also at least its k2);
    otherwise a ValueError is raised before any neighbor search.
    """
    (tag,) = angle_id._check_tags([estimator])
    ks = _check_k_values(k_values, tag, ged_pair)
    points = list(range(data.n)) if point_subset is None else [int(i) for i in point_subset]
    angle = tag in ANGLE_TAGS
    pts = data.points

    def work(block: list[int], idx: np.ndarray, dist: np.ndarray) -> np.ndarray:
        u = _directions(pts, pts[block], idx, dist) if angle else None
        return angle_id._estimates(u, dist, (tag,), ks, ged_pair)[tag][0]

    rows = angle_id._estimate_rows(ks[-1], data.dim, (tag,), angle)
    parts = _map_neighbors(data, points, ks[-1], work, threads, rows)
    return TrailMatrix(tuple(ks), np.concatenate(parts), tag, tuple(points))


def _check_k_values(k_values, estimator: str, ged_pair: tuple[int, int] | None = None) -> list[int]:
    """The k values of a trail in ascending order, or a ValueError saying what is wrong.

    They must be distinct positive integers, and the smallest must reach
    the estimator's minimum k (for ``ged`` with ``ged_pair``, also its k2).
    """
    values = list(k_values)
    try:
        ks = sorted(operator.index(k) for k in values)
    except TypeError:
        raise ValueError(f"k values must be integers, got {values!r}") from None
    if not ks:
        raise ValueError("k_values must be non-empty")
    if ks[0] < 1:
        raise ValueError(f"k values must be >= 1, got {ks[0]}")
    if any(a == b for a, b in zip(ks, ks[1:])):
        raise ValueError(f"k values must be distinct, got {ks}")
    need, what = MIN_K[estimator], f"estimator {estimator}"
    if estimator == "ged" and ged_pair is not None:
        k1, k2 = ged_pair
        if not 1 <= k1 < k2:
            raise ValueError(f"ged_pair needs 1 <= k1 < k2, got ({k1}, {k2})")
        need, what = max(need, k2), f"estimator ged with ged_pair ({k1}, {k2})"
    if ks[0] < need:
        raise ValueError(f"{what} needs k >= {need}, got k = {ks[0]}")
    return ks


def pearson(a, b) -> float:
    """Product-moment correlation; undefined for constant inputs."""
    x, y = _paired(a, b)
    dx = x - x.mean()
    dy = y - y.mean()
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
    return x, y


def _average_ranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    # Group occupying sorted positions starts..ends-1 gets rank (starts+1+ends)/2.
    return ((starts + ends + 1) / 2.0)[inverse]


def write_histogram_csv(hist: Histogram, path, delimiter: str = ",") -> None:
    """Serialize occupied bins as (bin_left, count) rows with a header."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"bin_left{delimiter}count\n")
        for b in sorted(hist.counts):
            left = hist.origin + b * hist.bin_width
            fh.write(f"{_fmt(left)}{delimiter}{hist.counts[b]}\n")


def write_trails_csv(tm: TrailMatrix, path, delimiter: str = ",") -> None:
    """Serialize trails as one row per point under a k-valued header."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(delimiter.join(["index"] + [f"k{k}" for k in tm.k_values]) + "\n")
        for i, idx in enumerate(tm.point_indices):
            cells = [str(idx)] + [_fmt(v) for v in tm.estimates[i]]
            fh.write(delimiter.join(cells) + "\n")
