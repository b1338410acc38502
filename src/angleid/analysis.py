"""Aggregation of per-point estimates: histograms, stability trails, correlations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ANGLE_TAGS, DataMatrix, DegenerateInputError, _fmt
# knn is no longer called here; it stays importable as analysis.knn because
# the benchmark tracer (bench/spans.py) patches that name.
from .neighbors import NeighborList, _map_neighbor_lists, direction_bundle, knn  # noqa: F401
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
    construction and additional k values are nearly free.
    """
    (tag,) = angle_id._check_tags([estimator])
    ks = sorted(int(k) for k in k_values)
    if not ks:
        raise ValueError("k_values must be non-empty")
    points = list(range(data.n)) if point_subset is None else [int(i) for i in point_subset]
    k_max = ks[-1]
    angle = tag in ANGLE_TAGS

    def work(qi: int, nl: NeighborList) -> np.ndarray:
        row = np.empty(len(ks))
        bundle = direction_bundle(data, qi, nl) if angle else None
        for j, k in enumerate(ks):
            if angle:
                stats = angle_id.cosine_square_stats(bundle.prefix(k))
                est = angle_id.abid(stats) if tag == "abid" else angle_id.rabid(stats)
            else:
                est = angle_id._dispatch(tag, None, nl.prefix(k), ged_pair)
            row[j] = est.value
        return row

    rows = _map_neighbor_lists(data, points, k_max, work, threads)
    return TrailMatrix(tuple(ks), np.vstack(rows), tag, tuple(points))


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
