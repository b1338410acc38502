"""Angle-based local intrinsic dimensionality estimators.

Both estimators are methods of moments on the pairwise cosine similarities
of the unit directions from a query point to its k nearest neighbors. For
directions sampled from a locally d-dimensional set, the mean squared
cosine is 1/d, so its inverse estimates d:

* ABID uses the full k-by-k cosine matrix including the diagonal of ones.
  The diagonal acts as a regularizer: the estimate is provably bounded by
  the spanning dimension of the directions, and never exceeds k.
* RABID uses only the k**2 - k off-diagonal cosines. It is unbiased for
  large k but can blow up (or divide by zero) on near-orthogonal
  neighborhoods, in which case the estimate is clamped to k, the spanning
  dimension of k pairwise-orthogonal vectors.

Both derive from one sufficient statistic, the off-diagonal sum of squared
cosines, computed here through a Gram identity rather than an explicit
pairwise loop. One function, ``_sq_sums``, computes it for a block of
queries at every requested k in one pass. ``_estimates``, the one
estimation core of this package, turns it (and, for the distance-based
estimators of ``baseline_id``, the sorted neighbor distances) into value
and flag arrays; the public estimator functions call it, and so does
``_estimate_many``, the one query map behind points, tables and trails.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil, inf, isfinite

import numpy as np

from .core import (
    ANGLE_TAGS,
    CLAMPED_TO_K,
    DEGENERATE_ZERO_DENOMINATOR,
    ESTIMATOR_TAGS,
    FLAG_BITS,
    DataMatrix,
    EstimateTable,
    FixedPointDivergenceError,
    IdEstimate,
    InsufficientNeighborsError,
    MIN_K,
    _FLAG_SETS,
    _adopt,
    _check_ged_pair,
    _check_indices,
    _check_integer,
)
from . import neighbors
from .neighbors import DirectionBundle, _directions, _gather, _resolve_query, _workspace
# Not called here: the benchmark tracer (bench/spans.py) patches these names.
from .neighbors import direction_bundle, knn  # noqa: F401

__all__ = [
    "CosineSquareStats",
    "NeighborhoodSizeWarning",
    "cosine_square_stats",
    "abid",
    "rabid",
    "abid_via_fixed_point",
    "required_k",
    "estimate_point",
    "estimate_table",
]


class NeighborhoodSizeWarning(UserWarning):
    """The neighborhood looks too small for a properly regularized estimate."""


@dataclass(frozen=True)
class CosineSquareStats:
    """Sufficient statistics of the pairwise cosines within one neighborhood.

    ``off_diag_sq_sum`` is the sum of squared cosine similarities over all
    ordered pairs of *different* directions, in [0, k**2 - k].
    ``mean_cosine`` is the plain mean over the same pairs (0 when k == 1),
    kept as a diagnostic: values near 1 indicate a query point far away
    from its neighborhood.

    ``k`` must be an integer >= 0 under the package's rule and both floats
    finite, or a ValueError is raised; ``cosine_square_stats`` hands over
    its own (``core._adopt``).
    """

    k: int
    off_diag_sq_sum: float
    mean_cosine: float

    def __post_init__(self):
        object.__setattr__(self, "k", _check_integer("k", self.k, 0))
        if not (isfinite(self.off_diag_sq_sum) and isfinite(self.mean_cosine)):
            raise ValueError("off_diag_sq_sum and mean_cosine must be finite")

    @property
    def mean_sq_cosine_with_diagonal(self) -> float:
        """Mean squared cosine over the full k*k matrix, in (0, 1]."""
        return (self.off_diag_sq_sum + self.k) / (self.k * self.k)

    @property
    def mean_sq_cosine(self) -> float:
        """Mean squared cosine over off-diagonal pairs (requires k >= 2)."""
        return self.off_diag_sq_sum / (self.k * self.k - self.k)


# Elements of the largest array the estimation core builds per block
# (512 KiB): the query rows of an estimation block (``_estimate_rows``) are
# sized by it. Larger blocks were no faster on the benchmark's workloads
# and raise the peak memory. ``_outer_sums`` takes a whole block's
# products in one chunk where they fit twice this many, else chunks of at
# most this many and a zero pad row: an every-k trails block of 10 rows
# at k = 400 and D = 6 is one chunk of 84 000 products, which ran
# ``_sq_sums`` about 14 % faster than rows of 6 and 4. The per-block
# arrays of that size live in the thread's workspace
# (``neighbors._workspace``), so no block pages them in again.
_CHUNK = 1 << 16

# Bytes of the neighbor lists, 16 per (query, neighbor), that a query map
# keeps in its DataMatrix (``_estimate_many``). A trails batch of 10
# lattice points at k = 400 keeps 64 KiB and a 100-query cube table at
# k = 100 160 KiB; all-points tables are not kept.
_KEEP_BYTES = 1 << 21


def _estimate_rows(k_max: int, dim: int, need_u: bool) -> int:
    """Query rows per call of the estimation core for neighborhoods of up to ``k_max``.

    The divisor is the largest array per row: the (k_max, D) directions,
    or without them a (k_max,) distance row.
    """
    return max(1, _CHUNK // (k_max * (dim if need_u else 1)))


def _sq_sums(u: np.ndarray, ks) -> np.ndarray:
    """S(k), the sum over i, j < k of (u_i . u_j)**2, per row at every k of ``ks`` in one pass.

    ``u`` is a (B, k_max, D) block of unit directions, ``ks`` ascending
    integers in [1, k_max]; the result is (B, len(ks)). Each S(k) is taken
    on the cheaper side of the Gram identity at that k: for k >= D it is
    ||sum_{i<k} u_i u_i^T||_F**2, read off running sums of the outer
    products; for k < D it is the sum of the squared entries of the
    k-by-k Gram matrix, read off running sums of its rows. Sums over
    directions run in index order (np.cumsum), so do the sums of squared
    entries (``_outer_sums`` has two paths that add alike), and each
    Gram entry is a dot product of fixed length D, so S(k) depends only
    on the first k directions of its row and is bitwise the same
    whichever other k values, rows or block size are involved; a BLAS
    matrix product is avoided because its rounding depends on the
    matrix size. Cost O(k_max * D * min(D, k_max)) per row for k_max =
    max(ks).
    """
    ks = np.asarray(ks, dtype=np.int64)
    dim = u.shape[2]
    if ks[0] >= dim:
        return _outer_sums(u, ks)
    if ks[-1] < dim:
        return _gram_sums(u, ks)
    gram = ks < dim
    return np.concatenate([_gram_sums(u, ks[gram]), _outer_sums(u, ks[~gram])], axis=1)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums along the last axis, added in index order whatever the shape; ``x`` is overwritten."""
    return np.cumsum(x, axis=-1, out=x)[..., -1]


def _outer_sums(u: np.ndarray, ks: np.ndarray) -> np.ndarray:
    # Only the upper triangle a <= b of each outer product is summed; the
    # off-diagonal entries count twice in the Frobenius norm. The products
    # go in chunks: the whole block where its products fit twice _CHUNK,
    # else an even number of whole rows where two rows' fit _CHUNK, else
    # runs of two rows' directions within _CHUNK. One chunk per block
    # spares the calls every chunk makes: an every-k trails block of 10
    # rows at k = 400 and D = 6 (84 000 products) is one chunk, not rows of
    # 6 and 4, while the 100-query tables at k = 100, D = 5 keep their
    # chunks of 42 rows. A chunk's R rows of kc directions are copied
    # transposed, (D, kc, L) with the rows innermost: L = R, or R + 1 with
    # a zero pad row where R is odd (a whole odd block, or a block's last
    # row), so a row chunk holds at most one row over the budget. The
    # products c of the P pairs lie as (P, kc, L): numpy's take gathers
    # each pair's first factor as a whole (kc, L) block, and the second
    # factors of pairs (i, i..D-1) are the contiguous blocks i..D-1. The
    # running sums run along k over a complex128 view of c whose lanes
    # hold two adjacent rows: a complex add is the two rows' own float64
    # adds, so one cumsum advances two rows per dependent add, and each
    # row's sums are bitwise its float64 cumsum (TestRowReductions pins
    # this). S(k) then sums the weighted squares over the pairs in index
    # order: one sum over the pair axis of the whole (P, kc, L) products,
    # which adds the (kc, L) planes one after another (TestRowReductions
    # pins this too), where the requested k give the chunk at least _LANES
    # (row, k) lanes, else one cumsum per lane over a transposed copy of
    # the requested columns. Either adds in the order of the row-wise
    # cumsum, so S(k) is bitwise the same on both paths.
    dim = u.shape[2]
    a, starts, weight = _triu(dim)
    pairs, k_max = a.size, int(ks[-1])
    whole = len(u) * k_max * pairs <= 2 * _CHUNK
    rows = len(u) if whole else _CHUNK // (k_max * pairs) // 2 * 2
    step = k_max if rows else max(1, _CHUNK // (2 * pairs))
    rows = max(2, rows)
    out = np.empty((len(u), ks.size))
    for r in range(0, len(u), rows):
        total = None
        for lo in range(0, k_max, step):
            v = u[r:r + rows, lo:min(lo + step, k_max)]
            n, kc = v.shape[:2]
            vt = _workspace("transposed", (dim, kc, n + n % 2))
            np.copyto(vt[..., :n], v.transpose(2, 1, 0))
            vt[..., n:] = 0.0  # the pad row, if any
            c = _gather(vt, a, 0, "products")
            for i, s in enumerate(starts):  # pairs (i, i..D-1) are c[s:s + D - i]
                c[s:s + dim - i] *= vt[i:]
            if total is not None:
                c[:, 0] += total
            lanes = c.view(np.complex128)
            np.cumsum(lanes, axis=1, out=lanes)  # c[:, j]: sum of the first lo + j + 1 products
            total = c[:, -1].copy()  # not a view: the next chunk overwrites this buffer
            j0, j1 = ks.searchsorted(lo + 1), ks.searchsorted(lo + kc, side="right")
            if j0 == j1:
                continue
            cols = _columns(ks[j0:j1], lo + 1)
            o = out[r:r + rows, j0:j1]
            # "transposed" is spent: it takes the pairs' sums, gathered columns, or else the copy.
            if o.size >= _LANES:
                np.square(c, out=c)
                for i, s in enumerate(starts[:-1]):  # weight 2 off the diagonal; 1 is a no-op
                    c[s + 1:s + dim - i] *= 2.0
                summed = np.add.reduce(c, axis=0, out=_workspace("transposed", c.shape[1:]))
                o[...] = summed[cols, :n].T
            else:
                if isinstance(cols, slice):
                    sel, spare = c[:, cols], "transposed"
                else:
                    sel, spare = _gather(c, cols, 1, "transposed"), "products"
                t = _workspace(spare, o.shape + (pairs,))
                np.copyto(t, sel[..., :n].transpose(2, 1, 0))
                np.square(t, out=t)
                t *= weight
                o[...] = _row_sums(t)
    return out


# (row, k) lanes of a chunk from which ``_outer_sums`` sums the pairs with
# one add per pair rather than one cumsum per lane. The two cost the same
# at about 200 to 270 lanes, for D from 3 to 20 on a 2-core Xeon.
_LANES = 1 << 8


def _columns(ks: np.ndarray, first: int) -> slice | np.ndarray:
    """Positions ``ks - first``: a slice where the ascending ``ks`` form a run, else an array."""
    if ks[-1] - ks[0] == ks.size - 1:
        return slice(int(ks[0]) - first, int(ks[-1]) - first + 1)
    return ks - first


@functools.lru_cache(maxsize=64)
def _triu(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The upper triangle's row indices in row-major order, where each row starts, and
    each entry's weight (read-only)."""
    a, b = np.triu_indices(dim)
    out = (a, np.flatnonzero(a == b), np.where(a == b, 1.0, 2.0))
    for x in out:
        x.setflags(write=False)
    return out


def _gram_sums(u: np.ndarray, ks: np.ndarray) -> np.ndarray:
    # k < D here, so each Gram matrix is smaller than its directions. One
    # row at a time: a batched einsum need not round the same way.
    out = np.empty((len(u), ks.size))
    for r, v in enumerate(u[:, :int(ks[-1])]):
        g = np.einsum("id,jd->ij", v, v)
        g *= g
        rows = np.diagonal(g) + 2.0 * _row_sums(np.tril(g, -1))
        out[r] = np.cumsum(rows)[ks - 1]
    return out


def _mean_cosines(u: np.ndarray) -> np.ndarray:
    """Mean pairwise cosine of each (k, D) row of ``u`` (0 when k == 1), clamped into [-1, 1]."""
    k = u.shape[1]
    if k == 1:
        return np.zeros(len(u))
    # The sums over k, bitwise u.sum(axis=1) (a test pins this). numpy sums
    # a (B, k, D) block one (B, D) plane after another, each add a loop of
    # D values; it does the same on a k-major copy, in "products" (spent by
    # now), with loops of B D values. One row is k-major already. At D = 1
    # numpy sums each contiguous row of u pairwise instead, as fast, and a
    # k-major copy would not.
    if len(u) == 1 or u.shape[2] == 1:
        s = u.sum(axis=1)
    else:
        planes = _workspace("products", (k, len(u), u.shape[2]))
        np.copyto(planes, u.transpose(1, 0, 2))
        s = planes.sum(axis=0)
    # One stacked product of each row with itself: on C-contiguous rows
    # numpy's matmul takes the same 1-d dot per row as ``r @ r`` does, so
    # it rounds like it (a test pins this); on strided rows it need not.
    dots = np.matmul(s[:, None, :], s[:, :, None])[:, 0, 0]
    return np.clip((dots - k) / (k * k - k), -1.0, 1.0)


def cosine_square_stats(bundle: DirectionBundle) -> CosineSquareStats:
    """Pairwise cosine statistics of a direction bundle.

    Uses the Gram identity: the sum over all ordered pairs of squared dot
    products equals ||U^T U||_F^2 (U the k-by-D matrix of unit rows), so it
    costs O(k D^2) instead of O(k^2 D); when D > k the k-by-k Gram matrix
    is the cheaper side (see ``_sq_sums``). The diagonal contributes
    exactly k and is subtracted; roundoff is clamped back into
    [0, k**2 - k]. A bundle of no directions raises
    InsufficientNeighborsError(1, 0), as ``abid`` does at k = 0.
    """
    u = bundle.directions[None]
    k = len(bundle.directions)  # source_k as an int, whatever integer type a caller gave
    if not k:
        raise InsufficientNeighborsError(MIN_K["abid"], 0)
    off = _off_diag(_sq_sums(u, [k]), np.array([float(k)]))
    return _adopt(CosineSquareStats, k=k, off_diag_sq_sum=float(off[0, 0]),
                  mean_cosine=float(_mean_cosines(u)[0]))


def _estimate(tag: str, values: np.ndarray, flags: np.ndarray, k: int) -> IdEstimate:
    """The IdEstimate of a one-row, one-k result of the core."""
    return IdEstimate(tag, float(values[0, 0]), k, _FLAG_SETS[int(flags[0, 0])])


def _from_stats(tag: str, stats: CosineSquareStats) -> IdEstimate:
    """An angle-based estimate from the statistics, with the core's arithmetic (``_angle``)."""
    k = stats.k
    _check_ks((tag,), [k], None)
    off = np.array([[stats.off_diag_sq_sum]])
    return _estimate(tag, *_angle(tag, off, np.array([float(k)])), k)


def abid(stats: CosineSquareStats) -> IdEstimate:
    """Regularized angle-based estimate: k**2 / (off_diag_sq_sum + k).

    This is the inverse mean squared cosine with the diagonal included.
    The denominator is at least k, so the value is finite, positive, and
    never exceeds k; no flags are ever set.
    """
    return _from_stats("abid", stats)


def rabid(stats: CosineSquareStats) -> IdEstimate:
    """Raw angle-based estimate: (k**2 - k) / off_diag_sq_sum.

    A zero denominator (pairwise-orthogonal directions) or a value above k
    is clamped to k with flags, since k directions span at most a
    k-dimensional space.
    """
    return _from_stats("rabid", stats)


def abid_via_fixed_point(
    stats: CosineSquareStats, tol: float = 1e-12, max_iter: int = 100_000
) -> float:
    """The raw estimate's self-regularization fixed point; equals abid.

    Starting from the raw estimate d_0 = 1/m (m the off-diagonal mean
    squared cosine), iterates the self-consistency map
    d -> (1/m) * (k - d) / (k - 1) until successive iterates differ by
    less than ``tol``. That map contracts iff m*(k-1) > 1; below 1 its
    inverse d -> k - m*(k-1)*d is the contraction and is iterated instead,
    converging to the same self-consistent value. At m*(k-1) == 1 exactly,
    neither direction converges and a FixedPointDivergenceError is raised
    unless d_0 already solves the equation. Kept as a diagnostic
    cross-check of the closed form used by abid. ``tol`` must be positive
    and finite and ``max_iter`` a positive integer, or a ValueError is raised.
    """
    if not 0.0 < tol < inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    max_iter = _check_integer("max_iter", max_iter)
    k = stats.k
    if k < 2:
        raise InsufficientNeighborsError(2, k)
    if stats.off_diag_sq_sum <= 0.0:
        raise ValueError("fixed point requires off_diag_sq_sum > 0")
    m = stats.mean_sq_cosine
    slope = m * (k - 1.0)
    d_prev = 1.0 / m
    if slope > 1.0:
        def step(d):
            return (k - d) / ((k - 1.0) * m)
    elif slope < 1.0:
        def step(d):
            return k - slope * d
    else:
        d_next = (k - d_prev) / ((k - 1.0) * m)
        if abs(d_next - d_prev) < tol:
            return d_next
        raise FixedPointDivergenceError(
            f"mean squared cosine {m:.6g} * (k-1) == 1: iteration oscillates"
        )
    for _ in range(max_iter):
        d_next = step(d_prev)
        if abs(d_next - d_prev) < tol:
            return d_next
        d_prev = d_next
    raise FixedPointDivergenceError(f"no convergence after {max_iter} iterations")


def required_k(d: int, c: float) -> int:
    """Minimum neighborhood size bounding raw-estimate overestimation by d + c.

    Returns ceil(d**2/c + (1 - 1/c)*d). With c = 1 this is d**2.
    """
    d = _check_integer("d", d)
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    value = d * d / c + (1.0 - 1.0 / c) * d
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        return int(nearest)
    return int(ceil(value))


def _check_tags(estimators) -> tuple[str, ...]:
    tags = tuple(estimators)
    if not tags:
        raise ValueError("at least one estimator tag is required")
    unknown = [t for t in tags if t not in ESTIMATOR_TAGS]
    if unknown:
        raise ValueError(f"unknown estimator tag(s) {unknown}; valid: {list(ESTIMATOR_TAGS)}")
    if len(set(tags)) != len(tags):
        raise ValueError("duplicate estimator tags")
    return tags


# uint8 scalars, so flag arithmetic on boolean arrays stays uint8.
_CLAMPED = np.uint8(FLAG_BITS[CLAMPED_TO_K])
_DEGENERATE = np.uint8(FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR])


def _estimates(u: np.ndarray | None, d: np.ndarray | None, tags, ks,
               ged_pair) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every estimator of ``tags`` at every k of ``ks`` on a block of B queries.

    The one place estimator arithmetic lives: tables are the ``ks = [k]``
    case, trails keep the values, and the public estimator functions call
    it with B = 1 (``abid``/``rabid``, which start from known statistics,
    through its ABID/RABID part ``_angle``). ``u`` is the (B, k_max, D)
    block of unit directions to the neighbors (None when no angle
    estimator is asked for), ``d`` the (B, k_max) sorted neighbor
    distances (None when only angle estimators are) and ``ks`` ascending
    integers in [1, k_max]. Returns ``{tag: (values, flags)}``, both (B,
    len(ks)): float64 estimates and uint8 flag masks (``core.FLAG_BITS``).

    ABID and RABID read every k off one pass of ``_sq_sums``. MLE and MoM
    read every k off running sums of the distance increments, by summation
    by parts (d_0 <= ... <= d_{k-1} the distances):

        sum_{i<k} log(d_{k-1} / d_i) = sum_{0<j<k} j log(d_j / d_{j-1}),
        sum_{i<k} (d_{k-1} - d_i)    = sum_{0<j<k} j (d_j - d_{j-1}),

    so MLE(k) = (k - 1) / G(k) and MoM(k) = mean / (d_{k-1} - mean) =
    S(k) / G'(k), with G, G' and S = sum_{i<k} d_i one ``np.cumsum`` each
    along the rows, O(k_max) per row however many k are asked for. Every
    term is non-negative, so nothing cancels; each ratio d_j / d_{j-1}
    is taken as ``log1p`` of the increment over d_{j-1}, so near-ties lose
    no digits. A denominator is zero exactly when all k distances are
    equal, d_0 == d_{k-1}, and that is the degeneracy rule. GED reads two
    distances per k. The sums run in index order and ``log1p`` is
    elementwise (a test pins both), so a row's values do not depend on the
    block it came in, nor on the other k values. The callers check ``ks``
    and ``ged_pair`` (``_check_ks``).
    """
    ks = np.asarray(ks, dtype=np.int64)
    kf = ks.astype(np.float64)
    if any(t in ANGLE_TAGS for t in tags):
        off = _off_diag(_sq_sums(u, ks), kf)
    last = _columns(ks, 1)  # a slice where ks is a run, as in every-k trails
    if "mle" in tags or "mom" in tags:
        rises = _columns(ks, 2)
        d = d[:, :ks[-1]]
        # Column j - 1 holds d_j - d_{j-1} >= 0. The (B, k_max) arrays live
        # in the thread's workspace: with distance estimators alone they
        # are the block's largest.
        rise = np.subtract(d[:, 1:], d[:, :-1], out=_workspace("rise", (len(d), ks[-1] - 1)))
        weights = np.arange(1.0, ks[-1])
        equal = d[:, :1] == d[:, last]
    out = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for tag in tags:
            if tag in ANGLE_TAGS:
                out[tag] = _angle(tag, off, kf)
            elif tag == "mle":
                terms = _workspace("terms", rise.shape)
                np.log1p(np.divide(rise, d[:, :-1], out=terms), out=terms)
                terms *= weights
                g = np.cumsum(terms, axis=1, out=terms)[:, rises]
                # Not in place: g may be a view of "terms", which the next tag reuses.
                out[tag] = _degenerate(np.divide(kf - 1.0, g), equal, kf)
            elif tag == "mom":
                # A copy: "terms" is reused for the increments' sums below.
                total = np.cumsum(d, axis=1, out=_workspace("terms", d.shape))[:, last].copy()
                terms = _workspace("terms", rise.shape)
                g = np.cumsum(np.multiply(rise, weights, out=terms), axis=1, out=terms)[:, rises]
                out[tag] = _degenerate(np.divide(total, g, out=total), equal, kf)
            else:
                if ged_pair is None:
                    k1, k2 = (ks + 1) // 2, ks
                else:
                    k1, k2 = np.full_like(ks, ged_pair[0]), np.full_like(ks, ged_pair[1])
                d1, d2 = d[:, k1 - 1], d[:, _columns(k2, 1)]
                out[tag] = _degenerate(np.log(k2 / k1) / np.log(d2 / d1), d1 == d2, kf)
    return out


def _check_ks(tags, ks, ged_pair, point=None) -> None:
    """Errors for a GED pair or an estimator's minimum (for ``point``) at the smallest of ``ks``."""
    _check_ged_pair(ged_pair, ks[0])
    for tag in tags:
        if ks[0] < MIN_K[tag]:
            raise InsufficientNeighborsError(MIN_K[tag], int(ks[0]), point)


def _angle(tag: str, off: np.ndarray, kf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ABID or RABID values and flags from the off-diagonal sums ``off`` at each k of ``kf``."""
    if tag == "abid":
        return kf * kf / (off + kf), np.zeros(off.shape, np.uint8)
    with np.errstate(divide="ignore"):
        value = (kf * kf - kf) / off  # inf where off == 0
    over = value > kf
    return np.where(over, kf, value), over * _CLAMPED | (off == 0.0) * _DEGENERATE


def _off_diag(sq_sums: np.ndarray, kf: np.ndarray) -> np.ndarray:
    """S(k) without its k diagonal ones, roundoff clamped into [0, k**2 - k], in place of ``sq_sums``."""
    off = np.subtract(sq_sums, kf, out=sq_sums)
    return np.minimum(np.maximum(off, 0.0, out=off), kf * kf - kf, out=off)


def _degenerate(value: np.ndarray, zero: np.ndarray, kf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and flags of a distance estimator: k and the degeneracy flag where ``zero``.

    ``zero`` marks a zero denominator, an infinite estimate. ``value`` is
    overwritten.
    """
    np.copyto(value, kf, where=zero)
    return value, zero * _DEGENERATE


def _warn_small(values: dict[str, np.ndarray], k: int) -> None:
    """One NeighborhoodSizeWarning per row whose angle-based estimate exceeds k - 2.

    Estimates this close to k suggest the neighborhood is smaller than
    d + 2, below the size needed for proper regularization. ``values``
    maps tags to one value per row.
    """
    angle = [values[t] > k - 2 for t in ANGLE_TAGS if t in values]
    if angle:
        for _ in range(int(np.count_nonzero(np.logical_or.reduce(angle)))):
            warnings.warn(
                f"k={k} may be too small: an angle-based estimate exceeded k-2",
                NeighborhoodSizeWarning,
                stacklevel=3,
            )


def estimate_point(
    data: DataMatrix,
    query,
    k: int,
    estimators=ANGLE_TAGS,
    ged_pair: tuple[int, int] | None = None,
) -> dict[str, IdEstimate]:
    """Run the requested estimators on one query's k-nearest neighborhood.

    All estimators see the identical neighbor list, so mixed angle/distance
    comparisons are apples to apples. ``query``, a point index or a vector,
    is the one row of ``_estimate_many``, checked before the search as by
    ``estimate_table``; an error names the query index (None for a vector).
    """
    tags = _check_tags(estimators)
    k = _check_integer("k", k)
    q, qidx = _resolve_query(data, query)
    _check_ks(tags, [k], ged_pair, qidx)
    est, _ = _estimate_many(data, q[None], [qidx], tags, [k], ged_pair, threads=1)
    _warn_small({t: values[:, 0] for t, (values, _) in est.items()}, k)
    return {t: _estimate(t, values, flags, k) for t, (values, flags) in est.items()}


def estimate_table(
    data: DataMatrix,
    k: int,
    estimators=ANGLE_TAGS,
    queries=None,
    ged_pair: tuple[int, int] | None = None,
    with_diagnostics: bool = False,
    threads: int = 1,
) -> EstimateTable:
    """Estimates for many in-set query points, one row per query.

    ``queries`` defaults to every point index. Work is an independent map
    over blocks of queries (``_estimate_many``); ``threads`` only sets the
    parallel width and never changes results or row order. A ``k`` or
    ``threads`` below 1, a query that is not an integer (a float, a
    numpy float or bool) or a ``ged_pair`` outside [1, k] raises a
    ValueError, a query outside [0, n) an IndexError, and a k below an
    estimator's minimum InsufficientNeighborsError for the first query,
    before any search. One NeighborhoodSizeWarning is issued per row
    whose angle-based estimate exceeds k - 2.
    """
    tags = _check_tags(estimators)
    k = _check_integer("k", k)
    rows, names = _query_rows(data, queries, "queries")
    _check_ks(tags, [k], ged_pair, names[0])
    est, mean_cosines = _estimate_many(data, rows, names, tags, [k], ged_pair, threads,
                                       with_diagnostics)
    values = {t: v[:, 0] for t, (v, _) in est.items()}
    flags = {t: f[:, 0] for t, (_, f) in est.items()}
    _warn_small(values, k)
    return EstimateTable(names, mean_cosines, k=k, values=values, flags=flags)


def _query_rows(data: DataMatrix, subset, name: str):
    """The query rows and their point indices: every point if ``subset`` is None; never empty."""
    if subset is None:
        return data.points, range(data.n)
    names = _check_indices(name, subset, data.n)
    if not names:
        raise ValueError(f"at least one query point is required; {name} is empty")
    return data.points[names], names


def _estimate_many(data: DataMatrix, queries: np.ndarray, names, tags, ks, ged_pair,
                   threads: int, with_diagnostics: bool = False):
    """Every estimator of ``tags`` at every k of ``ks`` for each row of ``queries``.

    The one query map behind ``estimate_point`` (one row), tables and
    trails; the callers check the (Q, D) ``queries``, their Q ``names``
    for errors, ``ks`` and ``ged_pair``. Returns ``{tag: (values, flags)}``
    with (Q, len(ks)) arrays, as ``_estimates`` does, and the (Q,) mean
    cosines at the largest k (None without ``with_diagnostics``).

    The queries are cut into blocks of ``_estimate_rows`` rows, capped at
    ceil(Q / threads) so every thread gets work. Each block is one kernel
    search, which splits it evenly into blocks of its own
    (``neighbors._block``), then ``_directions`` and ``_estimates`` on the
    calling thread's workspace buffers (``neighbors._workspace``), and
    writes its rows of the outputs. With
    ``threads > 1`` the blocks run in a thread pool, drained in block
    order, so a neighbor shortage names the first short query (the kernel
    names a block's first short row). No result depends on the block size.

    The matrix keeps the neighbor lists of its last map (``_neighbors``)
    if every query is a point index and the (Q, k_max) lists fit
    ``_KEEP_BYTES``: the kernel writes each block's rows straight into
    the kept arrays, which are made read-only and stored in one assignment
    once every block has succeeded, so a failed map leaves the previous
    lists. A map of the same indices in the same order at a k_max no
    larger searches nothing: its blocks read the kept lists' first k_max
    columns, bitwise what the kernel would return, since knn(k) is a
    prefix of knn(k+1).
    """
    threads = _check_integer("threads", threads)
    ks = np.asarray(ks, dtype=np.int64)
    k_max = int(ks[-1])
    key, kept = tuple(names), data._neighbors  # read once: a concurrent map may store others
    hit = kept is not None and kept[0] == key and kept[1].shape[1] >= k_max
    keep = None
    if not hit and 16 * len(queries) * k_max <= _KEEP_BYTES and None not in key:
        keep = np.empty((len(queries), k_max), np.int64), np.empty((len(queries), k_max))
    need_u = with_diagnostics or any(t in ANGLE_TAGS for t in tags)
    rows = min(_estimate_rows(k_max, data.dim, need_u), -(-len(queries) // threads))
    size = (len(queries), len(ks))
    est = {t: (np.empty(size), np.empty(size, np.uint8)) for t in tags}
    mean_cosines = np.empty(len(queries)) if with_diagnostics else None

    def work(block: range):
        span = slice(block.start, block.stop)
        q = queries[span]
        if hit:
            idx, dist = kept[1][span, :k_max], kept[2][span, :k_max]
        else:
            if keep is not None:
                out = keep[0][span], keep[1][span]
            else:
                shape = (len(block), k_max)
                out = _workspace("idx", shape, np.int64), _workspace("dist", shape)
            # Looked up per call, so one patch of neighbors._knn_kernel reaches every search.
            idx, dist = neighbors._knn_kernel(data, k_max, q, names[span], out)
        u = _directions(data.points, q, idx, dist) if need_u else None
        for t, (values, flags) in _estimates(u, dist, tags, ks, ged_pair).items():
            est[t][0][span], est[t][1][span] = values, flags
        if with_diagnostics:
            mean_cosines[span] = _mean_cosines(u)

    blocks = [range(len(queries))[lo:lo + rows] for lo in range(0, len(queries), rows)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))  # in block order, so the first short query raises
    else:
        list(map(work, blocks))
    if keep is not None:
        for a in keep:
            a.setflags(write=False)
        object.__setattr__(data, "_neighbors", (key, *keep))
    return est, mean_cosines
