"""Shared domain types, the dataset container, and CSV round-tripping.

All numeric work is done in 64-bit floats: the estimators accumulate up to
k**2 squared cosines and evaluate beta/gamma functions, where 32-bit
accumulation visibly biases results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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
    "INSUFFICIENT_NEIGHBORS",
    "DataMatrix",
    "IdEstimate",
    "EstimateTable",
    "load_csv",
    "write_csv",
]

ANGLE_TAGS = ("abid", "rabid")
DISTANCE_TAGS = ("mle", "mom", "ged")
ESTIMATOR_TAGS = ANGLE_TAGS + DISTANCE_TAGS

# The smallest neighborhood each estimator is defined on.
MIN_K = {"abid": 1, "rabid": 2, "mle": 2, "mom": 2, "ged": 4}

# IdEstimate flag names.
CLAMPED_TO_K = "clamped_to_k"
DEGENERATE_ZERO_DENOMINATOR = "degenerate_zero_denominator"
INSUFFICIENT_NEIGHBORS = "insufficient_neighbors"


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


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """n points in D-dimensional real space, immutable after construction.

    Row order defines the point index; all reported results key on it.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        n, dim = pts.shape
        if n < 1 or dim < 1:
            raise ValueError(f"need n >= 1 and D >= 1, got {n}x{dim}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite (no NaN/Inf)")
        pts.setflags(write=False)
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


@dataclass(frozen=True, eq=False)
class EstimateTable:
    """Per-point estimates: one row per query point, one column per estimator.

    All rows share the same estimator set and the same k. ``mean_cosines``
    is an optional per-row diagnostic column.
    """

    rows: tuple[tuple[int, dict[str, IdEstimate]], ...]
    mean_cosines: tuple[float, ...] | None = None

    def __post_init__(self):
        rows = tuple((int(i), dict(ests)) for i, ests in self.rows)
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
        if self.mean_cosines is not None:
            mc = tuple(float(v) for v in self.mean_cosines)
            if len(mc) != len(rows):
                raise ValueError("mean_cosines length must match row count")
            object.__setattr__(self, "mean_cosines", mc)
        object.__setattr__(self, "rows", rows)

    @property
    def estimators(self) -> tuple[str, ...]:
        return tuple(self.rows[0][1].keys())

    @property
    def k(self) -> int:
        return next(iter(self.rows[0][1].values())).k

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.rows)

    def values(self, tag: str) -> np.ndarray:
        """Estimate values of one column, in row order."""
        return np.array([ests[tag].value for _, ests in self.rows], dtype=np.float64)


def _fmt(x: float) -> str:
    # 17 significant digits round-trip 64-bit floats exactly.
    return "%.17g" % x


def load_csv(path, delimiter: str = ",", skip_header: bool = False) -> DataMatrix:
    """Parse a numeric CSV file into a DataMatrix, preserving row order.

    Data files carry no header by default; pass ``skip_header=True`` to
    drop the first line. Raises CsvFormatError naming the offending
    1-based line for ragged rows or non-numeric fields.
    """
    path = Path(path)
    rows: list[list[float]] = []
    width = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            fields = line.rstrip("\r\n").split(delimiter)
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise CsvFormatError(
                    path, lineno, f"expected {width} fields, found {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                bad = next(f for f in fields if not _is_float(f))
                raise CsvFormatError(path, lineno, f"non-numeric field {bad!r}") from None
    if not rows:
        raise CsvFormatError(path, None, "file contains no data rows")
    return DataMatrix(np.asarray(rows, dtype=np.float64))


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def write_csv(obj, path, delimiter: str = ",") -> None:
    """Write a DataMatrix or EstimateTable as CSV with LF line endings.

    Output is deterministic; floats are serialized with 17 significant
    digits so matrices round-trip bit-identically through load_csv.
    EstimateTable gets a header row, DataMatrix does not.
    """
    if isinstance(obj, DataMatrix):
        lines = (delimiter.join(_fmt(v) for v in row) for row in obj.points)
    elif isinstance(obj, EstimateTable):
        lines = _table_lines(obj, delimiter)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as CSV")
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _table_lines(table: EstimateTable, delimiter: str):
    tags = table.estimators
    header = ["index", *tags]
    if table.mean_cosines is not None:
        header += ["mean_cosine", "flags"]
    yield delimiter.join(header)
    for row_pos, (idx, ests) in enumerate(table.rows):
        cells = [str(idx)] + [_fmt(ests[t].value) for t in tags]
        if table.mean_cosines is not None:
            cells.append(_fmt(table.mean_cosines[row_pos]))
            cells.append(_flags_cell(ests, tags))
        yield delimiter.join(cells)


def _flags_cell(ests: dict[str, IdEstimate], tags: tuple[str, ...]) -> str:
    parts = []
    for t in tags:
        parts.extend(f"{t}:{f}" for f in sorted(ests[t].flags))
    return "|".join(parts)
