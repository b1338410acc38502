"""Reference answers for the benchmark's checks, written with numpy alone.

Nothing here imports the package: each quantity is recomputed the plain
way, so a fault in the package cannot hide in a shared helper.

* Neighbors: every distance by brute force, zero-distance rows (the query
  and its exact duplicates) dropped, ties ordered by (distance, index).
* ABID and RABID: the explicit k-by-k matrix of pairwise cosines.
* Hill (MLE), method of moments and GED: the sorted distances.

An estimate is a ``(value, flags)`` pair, flags a frozenset of flag names.
"""

from __future__ import annotations

import numpy as np

CLAMPED = "clamped_to_k"
DEGENERATE = "degenerate_zero_denominator"

# Relative tolerance on estimates and distances. The package and these
# references sum in different orders (Gram identity vs. explicit pairs);
# on the benchmark's data they agree to about 2.5e-15.
RTOL = 1e-12
# Absolute tolerance on the mean cosine, which sits near 0.
MEAN_COSINE_ATOL = 1e-12


class Neighbors:
    """The exact neighborhood of one query and what was left out of it."""

    def __init__(self, indices, distances, duplicates_excluded, kth_ties):
        self.indices = indices
        self.distances = distances
        self.duplicates_excluded = duplicates_excluded
        self.kth_ties = kth_ties


def knn(points: np.ndarray, query: int, k: int) -> Neighbors:
    """Brute-force k nearest neighbors of row ``query`` of ``points``.

    ``duplicates_excluded`` counts rows other than the query at distance
    exactly 0; ``kth_ties`` counts candidates left out although they sit
    at the k-th distance (the index tie-break dropped them).
    """
    diff = points - points[query]
    dist = np.sqrt((diff * diff).sum(axis=1))
    order = np.lexsort((np.arange(dist.size), dist))
    order = order[dist[order] > 0.0]
    if order.size < k:
        raise ValueError(f"only {order.size} distinct neighbors, need {k}")
    kth = dist[order[k - 1]]
    return Neighbors(
        indices=order[:k],
        distances=dist[order[:k]],
        duplicates_excluded=int(np.count_nonzero(dist == 0.0)) - 1,
        kth_ties=int(np.count_nonzero(dist[order[k:]] == kth)),
    )


def cosines(points: np.ndarray, query: int, nb: Neighbors) -> tuple[np.ndarray, np.ndarray]:
    """The explicit k-by-k pairwise cosines of the neighbor directions.

    Returns the cosine matrix and its elementwise square with the
    diagonal zeroed, whose sum is the off-diagonal sum of squares.
    """
    u = (points[nb.indices] - points[query]) / nb.distances[:, None]
    cos = u @ u.T
    sq = cos * cos
    np.fill_diagonal(sq, 0.0)
    return cos, sq


def mean_cosine(cos: np.ndarray) -> float:
    k = cos.shape[0]
    if k == 1:
        return 0.0
    off = cos[~np.eye(k, dtype=bool)]
    return float(min(max(off.mean(), -1.0), 1.0))


def abid(off_sq_sum: float, k: int):
    return k * k / (off_sq_sum + k), frozenset()


def rabid(off_sq_sum: float, k: int):
    if off_sq_sum == 0.0:
        return float(k), frozenset({CLAMPED, DEGENERATE})
    value = (k * k - k) / off_sq_sum
    if value > k:
        return float(k), frozenset({CLAMPED})
    return value, frozenset()


def mle(dist: np.ndarray):
    k = dist.size
    log_sum = float(np.log(dist[:-1] / dist[-1]).sum())
    if log_sum == 0.0:
        return float(k), frozenset({DEGENERATE})
    return -(k - 1) / log_sum, frozenset()


def mom(dist: np.ndarray):
    k = dist.size
    w, m = float(dist[-1]), float(dist.mean())
    if w == m:
        return float(k), frozenset({DEGENERATE})
    return m / (w - m), frozenset()


def ged(dist: np.ndarray):
    k = dist.size
    k1, k2 = (k + 1) // 2, k
    d1, d2 = float(dist[k1 - 1]), float(dist[k2 - 1])
    if d1 == d2:
        return float(k), frozenset({DEGENERATE})
    return float(np.log(k2 / k1) / np.log(d2 / d1)), frozenset()


def estimates(points: np.ndarray, query: int, nb: Neighbors, tags) -> tuple[dict, float]:
    """Every requested estimate on one neighborhood, plus the mean cosine."""
    cos, sq = cosines(points, query, nb)
    k, off = nb.indices.size, float(sq.sum())
    by_tag = {
        "abid": lambda: abid(off, k),
        "rabid": lambda: rabid(off, k),
        "mle": lambda: mle(nb.distances),
        "mom": lambda: mom(nb.distances),
        "ged": lambda: ged(nb.distances),
    }
    return {t: by_tag[t]() for t in tags}, mean_cosine(cos)


def trail(points: np.ndarray, query: int, k_values, tag: str) -> np.ndarray:
    """One estimator at every k of ``k_values``, each k from its own prefix."""
    ks = list(k_values)
    nb = knn(points, query, max(ks))
    sq = cosines(points, query, nb)[1] if tag in ("abid", "rabid") else None
    out = np.empty(len(ks))
    for j, k in enumerate(ks):
        if tag == "abid":
            out[j] = abid(float(sq[:k, :k].sum()), k)[0]
        elif tag == "rabid":
            out[j] = rabid(float(sq[:k, :k].sum()), k)[0]
        else:
            out[j] = {"mle": mle, "mom": mom, "ged": ged}[tag](nb.distances[:k])[0]
    return out


def close(got: float, want: float, rtol: float = RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


def compare_neighbors(where: str, got_indices, got_distances, want: Neighbors) -> list[str]:
    """Problems found comparing a neighbor list with the reference."""
    got_indices = np.asarray(got_indices)
    if got_indices.shape != want.indices.shape or np.any(got_indices != want.indices):
        return [f"{where}: neighbor indices differ from brute force"]
    if not all(close(g, w) for g, w in zip(np.asarray(got_distances), want.distances)):
        return [f"{where}: neighbor distances differ from brute force beyond {RTOL:g}"]
    return []


def compare_estimates(where: str, got: dict, want: dict) -> list[str]:
    """Problems found comparing ``{tag: (value, flags)}`` with the reference."""
    problems = []
    for tag, (w_value, w_flags) in want.items():
        if tag not in got:
            problems.append(f"{where}: estimator {tag} missing")
            continue
        g_value, g_flags = got[tag]
        if not close(g_value, w_value):
            problems.append(f"{where}: {tag} = {g_value!r}, reference {w_value!r}")
        if frozenset(g_flags) != w_flags:
            problems.append(f"{where}: {tag} flags {sorted(g_flags)}, reference {sorted(w_flags)}")
    return problems
