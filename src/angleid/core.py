"""Shared domain types, the dataset container, and CSV round-tripping.

All numeric work is done in 64-bit floats: the estimators accumulate up to
k**2 squared cosines and evaluate beta/gamma functions, where 32-bit
accumulation visibly biases results.
"""

from __future__ import annotations

import io
import math
import operator
import re
import string
from collections import deque
from contextlib import closing, suppress
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from functools import partial
from itertools import chain, islice

import numpy as np

__all__ = [
    "AngleIdError",
    "CsvFormatError",
    "InsufficientNeighborsError",
    "DegenerateInputError",
    "FixedPointDivergenceError",
    "ESTIMATOR_TAGS",
    "ANGLE_TAGS",
    "DISTANCE_TAGS",
    "MIN_K",
    "CLAMPED_TO_K",
    "DEGENERATE_ZERO_DENOMINATOR",
    "FLAG_BITS",
    "DataMatrix",
    "IdEstimate",
    "EstimateTable",
    "load_csv",
    "write_csv",
]

ANGLE_TAGS = ("abid", "rabid")
DISTANCE_TAGS = ("mle", "mom", "ged")
ESTIMATOR_TAGS = ANGLE_TAGS + DISTANCE_TAGS

# The shapes ``synth.generate`` makes (re-exported as ``synth.SHAPES``);
# the CLI's ``--shape`` choices read them here, so its parser needs no synth.
SHAPES = ("ball", "sphere", "gaussian", "koch", "lattice", "nested_cubes", "offset_disc", "line")

# The smallest neighborhood each estimator is defined on.
MIN_K = {"abid": 1, "rabid": 2, "mle": 2, "mom": 2, "ged": 4}

# IdEstimate flag names, and their bits in an EstimateTable's flag masks.
CLAMPED_TO_K = "clamped_to_k"
DEGENERATE_ZERO_DENOMINATOR = "degenerate_zero_denominator"
FLAG_BITS = {CLAMPED_TO_K: 1, DEGENERATE_ZERO_DENOMINATOR: 2}
# The flag set of every mask value.
_FLAG_SETS = tuple(frozenset(f for f, bit in FLAG_BITS.items() if mask & bit)
                   for mask in range(1 << len(FLAG_BITS)))


class AngleIdError(Exception):
    """Base class for data and estimation errors raised by this package."""


class CsvFormatError(AngleIdError):
    """Malformed CSV input; carries the file and 1-based line number."""

    def __init__(self, path, line: int | None, message: str):
        where = f"{path}: " if line is None else f"{path}: line {line}: "
        super().__init__(where + message)
        self.path = str(path)
        self.line = line


class InsufficientNeighborsError(AngleIdError):
    """Fewer valid neighbor candidates than the requested k."""

    def __init__(self, required: int, available: int, point=None):
        where = "" if point is None else f" for point {point}"
        super().__init__(
            f"need {required} neighbors{where}, only {available} available"
        )
        self.required = required
        self.available = available
        self.point = point


class DegenerateInputError(AngleIdError):
    """Input on which the requested statistic is undefined (e.g. constant)."""


class FixedPointDivergenceError(AngleIdError):
    """Fixed-point iteration failed to converge; diagnostic only."""


def _integers(values: list) -> list[int]:
    """``values`` as ints, or a TypeError unless each is an integer; bools are refused too."""
    if not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise TypeError("a bool is not an integer")
    return list(map(operator.index, values))


def _check_integer(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int, or a ValueError unless it is an integer of at least ``minimum``."""
    try:
        (out,) = _integers([value])
    except TypeError:
        out = minimum - 1
    if out < minimum:
        rule = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return out


def _rng(seed) -> np.random.Generator:
    """The random generator of ``seed``, which must be an integer >= 0 under the rule above."""
    return np.random.default_rng(_check_integer("seed", seed, 0))


def _check_indices(name: str, values, n: int) -> list[int]:
    """``values`` as a list of point indices in [0, n).

    Otherwise the first bad value in order raises: a ValueError if it is
    not an integer (a float, a numpy float or a bool), an IndexError if it
    is outside [0, n).
    """
    values = list(values)
    try:
        out = _integers(values)
        if not out or (min(out) >= 0 and max(out) < n):
            return out
    except TypeError:
        pass
    for value in values:
        try:
            (idx,) = _integers([value])
        except TypeError:
            raise ValueError(f"{name} must be integer point indices, got {value!r}") from None
        if not 0 <= idx < n:
            raise IndexError(f"query index {idx} out of range for n={n}")


def _check_ged_pair(pair, k: int) -> None:
    """A ValueError unless ``pair`` is None or two integers 1 <= k1 < k2 <= k."""
    if pair is None:
        return
    try:
        k1, k2 = _integers(list(pair))
    except (TypeError, ValueError):  # not integers, not iterable, or not two
        raise ValueError(f"ged_pair must be two integers, got {pair!r}") from None
    if not 1 <= k1 < k2:
        raise ValueError(f"ged_pair needs 1 <= k1 < k2, got ({k1}, {k2})")
    if k2 > k:
        raise ValueError(f"ged_pair ({k1}, {k2}) needs k >= {k2}, got k = {k}")


def _check_k_values(k_values, estimators, ged_pair: tuple[int, int] | None = None) -> list[int]:
    """The k values in ascending order, or a ValueError saying what is wrong.

    They must be distinct positive integers; a given ``ged_pair`` must lie
    in [1, k] for the smallest k whatever the estimators, and that k must
    reach each estimator's minimum (``MIN_K``), in the order given. The
    values are converted once, into a set, and their types are read only
    where 0 or 1 is among them, the only values a bool converts to.
    """
    values = list(k_values)
    try:
        distinct = set(map(operator.index, values))
        if not distinct.isdisjoint((0, 1)):
            _integers(values)  # a TypeError for a bool
    except TypeError:
        raise ValueError(f"k values must be integers, got {values!r}") from None
    ks = sorted(distinct)
    if not ks:
        raise ValueError("k_values must be non-empty")
    if ks[0] < 1:
        raise ValueError(f"k values must be >= 1, got {ks[0]}")
    if len(ks) < len(values):
        raise ValueError(f"k values must be distinct, got {sorted(map(operator.index, values))}")
    _check_ged_pair(ged_pair, ks[0])
    for tag in estimators:
        if ks[0] < MIN_K[tag]:
            raise ValueError(f"estimator {tag} needs k >= {MIN_K[tag]}, got k = {ks[0]}")
    return ks


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a new read-only ``dtype`` array, shared with no caller."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _thread_map(fn, items, threads: int):
    """``fn`` of each of ``items``, yielded in order, on ``threads`` threads.

    With ``threads > 1`` the calls run in a pool of that many threads,
    started for this map alone. At most ``threads + 1`` items are taken
    from ``items`` ahead of the result yielded, so a lazy iterable is read
    only that far ahead. An error raises when its item's turn comes, so
    the first failing item in order raises, after the calls in flight end.
    """
    if threads == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # not loaded by one-thread commands

    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _adopt(cls, **fields):
    """An instance of the dataclass ``cls`` that keeps ``fields`` as given, with no copy or check.

    The one trusted constructor: each field not given takes its default,
    and each array field is made read-only in place. Only for values that
    already hold every invariant ``cls.__post_init__`` checks, such as a
    kernel's fresh rows or views of a valid object's read-only arrays;
    objects a caller builds go through the checks.
    """
    out = object.__new__(cls)
    for f in dataclass_fields(cls):
        value = fields.get(f.name, f.default)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(out, f.name, value)
    return out


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """n points in D-dimensional real space, immutable after construction.

    Row order defines the point index; all reported results key on it.

    The first neighbor search on a matrix builds its kNN screen (see
    ``neighbors._screen``): a read-only (D+2, n) float32 array, (D+2)/(2D)
    times the size of the points, with its center, scale and bound
    constants. The matrix keeps it for its lifetime, so every later search
    reuses it, and with it a contiguous copy of the screen's every s-th
    column for the last sampling stride s a search used (``_sample``, see
    ``neighbors._sampled``), at most half the screen's size.

    The matrix also keeps the neighbor lists of its last query map of
    in-set points that fit a small budget (``_neighbors``, see
    ``angle_id._estimate_many``): the query indices and read-only (Q, k)
    indices and distances. A later map of the same indices, in the same
    order, at a k no larger reads their prefixes instead of searching, so
    ABID and then MLE trails of one point set search once.
    ``dataclasses.replace`` gives a matrix with none of these.
    """

    points: np.ndarray
    _screen: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _sample: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _neighbors: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = _frozen(self.points, np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        n, dim = pts.shape
        if n < 1 or dim < 1:
            raise ValueError(f"need n >= 1 and D >= 1, got {n}x{dim}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite (no NaN/Inf)")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class IdEstimate:
    """A single dimensionality estimate: tag, value, neighborhood size, flags."""

    estimator: str
    value: float
    k: int
    flags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "flags", frozenset(self.flags))
        if CLAMPED_TO_K in self.flags and self.value != self.k:
            raise ValueError("clamped estimates must carry value == k")


class EstimateTable:
    """Per-point estimates: one row per query point, one column per estimator.

    The table is stored by columns: the query ``indices``, one ``k`` for
    all rows, and per estimator tag a float64 value array and a uint8 flag
    mask array (bits ``FLAG_BITS``), plus an optional per-row diagnostic
    column ``mean_cosines``. ``rows`` builds the same content as
    ``(index, {tag: IdEstimate})`` pairs when it is first asked for.

    ``EstimateTable(rows, mean_cosines)`` builds a table from such rows,
    which must share one estimator set and one k. With ``values`` and
    ``flags`` given (dicts of per-row arrays keyed by tag, in column
    order), the first argument is the index column instead.
    """

    def __init__(self, rows, mean_cosines=None, *, k=None, values=None, flags=None):
        if values is None:
            rows, k, values, flags = _columns(rows)
        indices = tuple(np.asarray(rows, dtype=np.int64).tolist())
        n = len(indices)
        if not n:
            raise ValueError("EstimateTable requires at least one row")
        if list(flags) != list(values):
            raise ValueError("values and flags must have the same estimator tags")
        self._indices = indices
        self._k = int(k)
        self._values = {t: _column(v, np.float64, n) for t, v in values.items()}
        self._flags = {t: _flag_column(t, flags[t], n) for t in values}
        if mean_cosines is not None:
            mean_cosines = tuple(_column(mean_cosines, np.float64, n).tolist())
        self._mean_cosines = mean_cosines
        self._rows = None

    def __len__(self) -> int:
        return len(self._indices)

    @property
    def estimators(self) -> tuple[str, ...]:
        return tuple(self._values)

    @property
    def k(self) -> int:
        return self._k

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    @property
    def mean_cosines(self) -> tuple[float, ...] | None:
        return self._mean_cosines

    def values(self, tag: str) -> np.ndarray:
        """Estimate values of one column, in row order."""
        return self._values[tag].copy()

    def flags(self, tag: str) -> np.ndarray:
        """Flag masks of one column, in row order; bit values are ``FLAG_BITS``."""
        return self._flags[tag].copy()

    @property
    def rows(self) -> tuple[tuple[int, dict[str, IdEstimate]], ...]:
        """The table as ``(index, {tag: IdEstimate})`` rows, built on first use."""
        if self._rows is None:
            k = self._k
            cols = [(t, self._values[t].tolist(), self._flags[t].tolist()) for t in self._values]
            self._rows = tuple(
                (idx, {t: IdEstimate(t, v[r], k, _FLAG_SETS[f[r]]) for t, v, f in cols})
                for r, idx in enumerate(self._indices)
            )
        return self._rows


def _column(values, dtype, n: int) -> np.ndarray:
    col = _frozen(values, dtype)
    if col.shape != (n,):
        raise ValueError(f"a column must hold one entry per row ({n}), got shape {col.shape}")
    return col


def _flag_column(tag: str, masks, n: int) -> np.ndarray:
    """The flag column of ``tag``, or a ValueError naming it for a mask outside ``FLAG_BITS``."""
    masks = np.asarray(masks)
    ok = (masks >= 0) & (masks < len(_FLAG_SETS))
    if not ok.all():
        (mask,) = masks.ravel()[np.flatnonzero(np.logical_not(ok))[:1]].tolist()
        raise ValueError(f"flag mask {mask!r} of {tag} is not a sum of FLAG_BITS {FLAG_BITS}")
    return _column(masks, np.uint8, n)


def _columns(rows) -> tuple[list[int], int, dict, dict]:
    """Index column, k, values and flag masks of ``(index, {tag: IdEstimate})`` rows."""
    rows = tuple((int(i), dict(ests)) for i, ests in rows)
    if not rows:
        raise ValueError("EstimateTable requires at least one row")
    tags = tuple(rows[0][1].keys())
    k = next(iter(rows[0][1].values())).k
    for idx, ests in rows:
        if tuple(ests.keys()) != tags:
            raise ValueError(f"row {idx} has estimator set {tuple(ests)}, expected {tags}")
        for est in ests.values():
            if est.k != k:
                raise ValueError(f"row {idx} has k={est.k}, expected {k}")
    values = {t: [ests[t].value for _, ests in rows] for t in tags}
    flags = {t: [_flag_mask(ests[t].flags) for _, ests in rows] for t in tags}
    return [i for i, _ in rows], k, values, flags


def _flag_mask(flags) -> int:
    unknown = set(flags) - FLAG_BITS.keys()
    if unknown:
        raise ValueError(f"unknown flag(s) {sorted(unknown)}; valid: {list(FLAG_BITS)}")
    return sum(FLAG_BITS[f] for f in flags)


def load_csv(path, delimiter: str = ",", skip_header: bool = False,
             threads: int = 1) -> DataMatrix:
    """Parse a numeric CSV file into a DataMatrix, preserving row order.

    Data files carry no header by default; pass ``skip_header=True`` to
    drop the first line. Raises CsvFormatError naming the offending
    1-based line for ragged rows, non-numeric or non-finite fields, or a
    byte that is not UTF-8. ``threads``, a positive integer, sets how
    many threads parse a matrix with a one-character delimiter
    (``_read_csv``); the result never depends on it. Every value is
    bitwise Python's ``float`` of its field. The matrix keeps the
    reader's array without copying it again.
    """
    threads = _check_integer("threads", threads)
    return _adopt(DataMatrix, points=_read_csv(path, delimiter, skip_header, threads=threads))


def write_csv(obj, path, delimiter: str = ",") -> None:
    """Write a DataMatrix or EstimateTable as CSV with LF line endings.

    Output is deterministic; floats are serialized with 17 significant
    digits so matrices round-trip bit-identically through load_csv.
    EstimateTable gets a header row, DataMatrix does not.
    """
    if isinstance(obj, DataMatrix):
        _write_csv(path, obj.points, delimiter)
    elif isinstance(obj, EstimateTable):
        tags = obj.estimators
        header = ["index", *tags]
        columns = [obj.indices, *(obj._values[t] for t in tags)]
        if obj.mean_cosines is not None:
            header += ["mean_cosine", "flags"]
            columns += [obj.mean_cosines, _flag_cells(obj, tags)]
        _write_csv(path, np.array(columns, dtype=object).T, delimiter, header)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as CSV")


def _flag_cells(table: EstimateTable, tags: tuple[str, ...]) -> list[str]:
    """The flags column: ``tag:flag`` items joined by ``|``, flags sorted within a tag."""
    names = [[[f"{t}:{f}" for f in sorted(fs)] for fs in _FLAG_SETS] for t in tags]
    masks = np.stack([table._flags[t] for t in tags], axis=1)
    cells = [""] * len(masks)
    for r in np.flatnonzero(masks.any(axis=1)).tolist():
        cells[r] = "|".join(item for t, m in enumerate(masks[r].tolist()) for item in names[t][m])
    return cells


# Lines parsed or formatted at a time, which bounds the memory the block
# parser and the writer hold besides their result; and bytes read at a
# time by the number reader (``_read_matrix``).
_CSV_ROWS = 4096
_CSV_BYTES = 1 << 20

# What a written cell can hold: a "%.17g" number (digits, ".", "+", "-",
# "e", "inf", "nan") or a column name (letters, digits, "_"); the items of a
# flags cell (``_flag_cells``) add ":" and "|". A line break ends a row.
_CELL_CHARS = frozenset(string.ascii_letters + string.digits + ".+-_\r\n")
_FLAG_CHARS = frozenset(":|")


def _check_delimiter(delimiter: str, flags: bool = False) -> None:
    """A ValueError unless ``delimiter`` is non-empty and can occur in no written cell.

    ``flags`` says that the file has the flags column of an estimate table
    with diagnostics.
    """
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    if not _CELL_CHARS.isdisjoint(delimiter):
        raise ValueError(f"delimiter {delimiter!r} must not contain a line break, "
                         "an ASCII letter or digit, '.', '+', '-' or '_'")
    if flags and not _FLAG_CHARS.isdisjoint(delimiter):
        raise ValueError(f"delimiter {delimiter!r} must not contain ':' or '|' "
                         "with the flags column")


def _write_csv(path, rows: np.ndarray, delimiter: str, header=None) -> None:
    """Write a header line, if given, and the rows of a 2-D array as CSV.

    Every number is written ``"%.17g"``: 17 significant digits round-trip
    float64 exactly, and whole numbers such as indices and counts print
    as integers. The str cells of an object array, the flags column, are
    written as they are. Lines end in LF. Each chunk of rows is formatted
    by one %-format. The delimiter must pass ``_check_delimiter``.
    """
    texts = [isinstance(c, str) for c in rows[0]] if len(rows) else []
    _check_delimiter(delimiter, any(texts))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(delimiter.join(header) + "\n")
        if len(rows):
            cells = ["%s" if text else "%.17g" for text in texts]
            fmt = delimiter.replace("%", "%%").join(cells) + "\n"
            for lo in range(0, len(rows), _CSV_ROWS):
                part = rows[lo:lo + _CSV_ROWS]
                fh.write((fmt * len(part)) % tuple(part.ravel().tolist()))


def _read_csv(path, delimiter: str, skip_header: bool = False, column: str | None = None,
              threads: int = 1):
    """The numbers of a CSV file: a float64 array with one row per line.

    Every line must have as many fields as the first line read, and every
    field must parse as a finite float. ``skip_header`` drops the first
    line. With ``column`` the first line is a header: it sets the field
    count, and only the named column is parsed, into a 1-D array; a name
    not in the header raises KeyError. Raises CsvFormatError naming the
    1-based line of a ragged row, of a non-numeric or non-finite field or
    of a byte that is not UTF-8, and for a file without data lines.

    A whole matrix with a one-character delimiter is first read by the
    number reader (``_read_matrix``), on ``threads`` threads, if the file
    is seekable. Every file it declines, and every column read, goes to
    the block parser (``_parse_blocks``), which writes every error. The
    array is bitwise the same either way.
    """
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    with open(path, "rb") as raw:
        if column is None and len(delimiter) == 1 and raw.seekable():
            values = _read_matrix(raw, delimiter, skip_header, threads)
            if values is not None:
                return values
            raw.seek(0)
        with io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape") as fh:
            return _parse_blocks(fh, path, delimiter, skip_header, column)


# The bytes of a number the number reader reads; besides them and the
# delimiter it reads only line breaks, and declines a file with any other.
_NUMBER_BYTES = b"0123456789.+-eE"
# A line and its break (LF, CR or CRLF, as Python's universal newlines).
_LINE = re.compile(rb"([^\r\n]*)(?:\r\n?|\n)?")


def _read_matrix(raw, delimiter: str, skip_header: bool, threads: int) -> np.ndarray | None:
    """The matrix in binary file ``raw``, or None where it could differ from the block parser.

    The file is read in line-aligned blocks of about ``_CSV_BYTES``, each
    parsed by ``_parse_numbers`` in block order over ``threads`` threads
    (``_thread_map``), so at most ``threads + 1`` blocks are held at once.
    The reader declines where the long double is not IEEE double,
    x87 extended or binary128 precision, where the delimiter is more than
    one byte, a number byte or a line break, where the header (with
    ``skip_header``) is not UTF-8, where the file holds no data line, and
    wherever a block is declined. Line breaks are LF, CR or CRLF, as
    Python's universal newlines read them.
    """
    sep = delimiter.encode()
    if (np.finfo(np.longdouble).nmant not in (52, 63, 112) or len(sep) != 1
            or sep in _NUMBER_BYTES + b"\r\n"):
        return None
    blocks = _line_blocks(raw)
    first = next(blocks, b"")
    if skip_header:
        header = _LINE.match(first)
        try:
            header[1].decode()
        except UnicodeDecodeError:
            return None
        first = first[header.end():] or next(blocks, b"")
    if not first:
        return None
    width = _LINE.match(first)[1].count(sep) + 1
    parse = partial(_parse_numbers, sep=sep, width=width)
    parts = []
    with closing(_thread_map(parse, chain([first], blocks), threads)) as results:
        for part in results:
            if part is None:
                return None
            parts.append(part)
    return np.concatenate(parts).reshape(-1, width)


def _line_blocks(raw):
    """The bytes of binary file ``raw`` in blocks of whole lines, about ``_CSV_BYTES`` each.

    Each block but the last ends in a line break; a CR that ends a read
    stays with the next block, so no CRLF is split. A block grows past
    ``_CSV_BYTES`` until its first line ends.
    """
    rest = b""
    while chunk := raw.read(_CSV_BYTES):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield rest


def _parse_numbers(block: bytes, sep: bytes, width: int) -> np.ndarray | None:
    """The values of a block of lines of ``width`` fields, each bitwise ``float(field)``, or None.

    None declines the block: a byte other than a number byte, ``sep`` or
    a line break, a line without ``width`` fields (a blank line too), a
    field numpy leaves unread, or a value that is not finite as float64.
    One ``bytes.translate`` maps ``sep`` and LF to ",", so that tab and
    space delimiters never act as numpy's whitespace separators, and
    numpy's text parser reads the fields as long doubles (``strtold``,
    which releases the GIL). A long double with a 64- or 113-bit
    significand holds the correctly rounded value of a field, and
    rounding it on to float64 gives ``float(field)``'s value unless it lies
    exactly on a float64 midpoint: then the two roundings can differ, so
    those fields are read again by ``float``. The midpoint test runs in
    long double, where the half-ulp residual of a subnormal float64 does
    not underflow.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    seps = block.translate(None, _NUMBER_BYTES)
    breaks, tail = seps.count(b"\n"), not block.endswith(b"\n")
    if seps != (sep * (width - 1) + b"\n") * breaks + sep * (width - 1) * tail:
        return None
    lines = breaks + tail
    text = block.translate(bytes.maketrans(sep + b"\n", b",,"))
    try:
        x = np.fromstring(text, dtype=np.longdouble, sep=",")
    except ValueError:  # a field numpy leaves unread
        return None
    if len(x) != lines * width:
        return None
    with np.errstate(over="ignore"):  # casts beyond float64's range give inf
        y = x.astype(np.float64)
        if not np.isfinite(y).all():
            return None
        # x is a float64 midpoint exactly when it is not a float64 and the
        # value on y's other side, x + (x - y), is one; both sums are exact.
        other = x + (x - y.astype(np.longdouble))
        mid = np.flatnonzero((other != x) & (other == other.astype(np.float64)))
    if len(mid):
        fields = text.split(b",")
        y[mid] = [float(fields[i]) for i in mid.tolist()]
    return y


def _parse_blocks(fh, path, delimiter: str, skip_header: bool = False,
                  column: str | None = None):
    """``_read_csv`` of the text file ``fh``, opened from ``path``, in blocks of lines.

    It reads what ``_read_matrix`` declines: any delimiter, and every
    field ``float`` accepts. ``fh`` decodes UTF-8 with ``surrogateescape``,
    so a byte that is not UTF-8 reaches it as a lone surrogate, which it
    reports with its line.
    """
    blocks, width, start, step, lineno = [], None, 0, 1, 1
    if skip_header or column is not None:
        line = fh.readline()
        _check_text(path, 1, line)
        header, lineno = line.rstrip("\r\n").split(delimiter), 2
    if column is not None:
        if column not in header:
            raise KeyError(f"column {column!r} not in header {header}")
        width = step = len(header)
        start = header.index(column)
    while lines := [line.rstrip("\r\n") for line in islice(fh, _CSV_ROWS)]:
        width = width or lines[0].count(delimiter) + 1
        block = None
        text = delimiter.join(lines)
        if _bad_byte(text) is None and all(line.count(delimiter) == width - 1 for line in lines):
            fields = text.split(delimiter)[start::step]
            with suppress(ValueError):
                block = np.fromiter(map(float, fields), np.float64, len(fields))
        if block is None or not np.isfinite(block).all():
            _raise_first_error(path, lineno, lines, delimiter, width, start, step)
        blocks.append(block)
        lineno += len(lines)
    if not blocks:
        raise CsvFormatError(path, None, "file contains no data rows")
    values = np.concatenate(blocks)
    return values if column is not None else values.reshape(-1, width)


def _bad_byte(text: str) -> int | None:
    """The first byte that was not UTF-8 in ``text``, decoded with ``surrogateescape``, or None."""
    if text.isascii():
        return None
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        return ord(text[exc.start]) - 0xDC00
    return None


def _check_text(path, lineno: int, line: str) -> None:
    """CsvFormatError naming ``lineno`` if ``line`` holds a byte that is not UTF-8."""
    byte = _bad_byte(line)
    if byte is not None:
        raise CsvFormatError(path, lineno, f"non-UTF-8 byte 0x{byte:02x}")


def _raise_first_error(path, lineno, lines, delimiter, width, start, step) -> None:
    """Raise CsvFormatError for the first ragged line or bad field of ``lines``."""
    for n, line in enumerate(lines, start=lineno):
        _check_text(path, n, line)
        fields = line.split(delimiter)
        if len(fields) != width:
            raise CsvFormatError(path, n, f"expected {width} fields, found {len(fields)}")
        for text in fields[start::step]:
            try:
                finite = math.isfinite(float(text))
            except ValueError:
                raise CsvFormatError(path, n, f"non-numeric field {text!r}") from None
            if not finite:
                raise CsvFormatError(path, n, f"non-finite field {text!r}")
