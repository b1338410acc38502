"""Deterministic, seeded generators for the synthetic benchmark datasets.

Every generator is a pure function of its parameters and seed: identical
calls produce bit-identical matrices. Shapes cover rotation-invariant
clouds (ball, sphere, Gaussian), a fractal curve (Koch snowflake), a
jittered lattice, nested hypercubes of mixed dimension, and the
offset-disc scenario where a query point sits far from the plane its
neighborhood lives in. Counts (the offset disc's n >= 3), dimensions,
the Koch depth (>= 0) and seeds (>= 0) follow core's integer rule
(``core._check_integer``), and every random generator comes from
``core._rng``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SHAPES, DataMatrix, _check_integer, _rng

__all__ = [
    "GeneratorSpec",
    "Generated",
    "generate",
    "sample_ball",
    "sample_sphere",
    "sample_gaussian",
    "koch_polyline",
    "koch_snowflake",
    "jittered_lattice",
    "nested_hypercubes",
    "offset_disc",
    "noisy_line",
]

LATTICE_LEVELS = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
LATTICE_JITTER_MAX = 1.0 / 3.0


def sample_ball(n: int, d: int, seed: int) -> DataMatrix:
    """n points i.i.d. uniform in the unit d-ball.

    Gaussian direction times a U**(1/d) radius, the standard volume-exact
    construction.
    """
    n, d = _check_integer("n", n), _check_integer("d", d)
    rng = _rng(seed)
    dirs = _unit_rows(rng.standard_normal((n, d)))
    radii = rng.random(n) ** (1.0 / d)
    return DataMatrix(dirs * radii[:, None])


def sample_sphere(n: int, d: int, seed: int) -> DataMatrix:
    """n points i.i.d. uniform on the unit sphere in d-space."""
    n, d = _check_integer("n", n), _check_integer("d", d)
    rng = _rng(seed)
    return DataMatrix(_unit_rows(rng.standard_normal((n, d))))


def sample_gaussian(n: int, d: int, seed: int) -> DataMatrix:
    """n points from the standard spherical Gaussian in d-space."""
    n, d = _check_integer("n", n), _check_integer("d", d)
    rng = _rng(seed)
    return DataMatrix(rng.standard_normal((n, d)))


def koch_polyline(depth: int) -> np.ndarray:
    """Closed Koch snowflake polyline at the given recursion depth.

    Starts from a counterclockwise equilateral triangle of side 1; each
    subdivision replaces every segment with 4 segments of a third the
    length, bumping outward. Returns the (3 * 4**depth + 1, 2) vertex
    array with first vertex repeated at the end; depth is an integer in 0..10.
    """
    depth = _check_integer("depth", depth, 0)
    if depth > 10:
        raise ValueError(f"depth={depth} would emit 3*4**{depth} + 1 vertices; limit is 10")
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0], [0.0, 0.0]])
    cos60, sin60 = 0.5, math.sqrt(3.0) / 2.0
    for _ in range(depth):
        a, b = v[:-1], v[1:]
        step = (b - a) / 3.0
        p1 = a + step
        p3 = a + 2.0 * step
        # Rotate the middle third by -60 degrees: outward for a CCW outline.
        bump = np.column_stack(
            (step[:, 0] * cos60 + step[:, 1] * sin60,
             -step[:, 0] * sin60 + step[:, 1] * cos60)
        )
        p2 = p1 + bump
        m = len(a)
        out = np.empty((4 * m + 1, 2))
        out[0:-1:4] = a
        out[1::4] = p1
        out[2::4] = p2
        out[3::4] = p3
        out[-1] = v[-1]
        v = out
    return v


def koch_snowflake(depth: int, n: int, seed: int) -> DataMatrix:
    """n points sampled uniformly by arc length along the Koch snowflake.

    All 3 * 4**depth segments at a given depth have equal length, so
    uniform arc-length sampling is a uniform segment choice plus a uniform
    position along it.
    """
    n = _check_integer("n", n)
    v = koch_polyline(depth)
    segments = len(v) - 1
    rng = _rng(seed)
    seg = rng.integers(0, segments, size=n)
    t = rng.random(n)
    pts = v[seg] + (v[seg + 1] - v[seg]) * t[:, None]
    return DataMatrix(pts)


def jittered_lattice(
    dims: int = 8,
    levels=LATTICE_LEVELS,
    jitter_max: float = LATTICE_JITTER_MAX,
    seed: int = 0,
) -> DataMatrix:
    """Every level-combination of a ``dims``-dimensional grid, plus jitter.

    With the default 4 levels this emits 4**dims points (65536 at dims=8),
    each displaced by a uniform draw from [0, jitter_max]**dims. Guarded at
    dims > 10 and at more than 4**10 points (the default levels at dims=10)
    because the point count explodes as levels**dims.
    """
    dims = _check_integer("dims", dims)
    if dims > 10:
        raise ValueError(f"dims={dims} would emit {len(levels)}**{dims} points; limit is 10")
    if not 0.0 <= jitter_max < math.inf:
        raise ValueError(f"jitter_max must be finite and >= 0, got {jitter_max}")
    levels = np.asarray(levels, dtype=np.float64)
    if levels.size ** dims > 4 ** 10:
        raise ValueError(f"{levels.size} levels at dims={dims} would emit {levels.size}**{dims} "
                         "points; limit is 4**10")
    grids = np.meshgrid(*((levels,) * dims), indexing="ij")
    base = np.stack([g.ravel() for g in grids], axis=1)
    rng = _rng(seed)
    return DataMatrix(base + rng.uniform(0.0, jitter_max, size=base.shape))


def nested_hypercubes(
    max_dim: int = 5,
    n_per_cube: int = 5000,
    rotate: bool = False,
    seed: int = 0,
) -> tuple[DataMatrix, np.ndarray]:
    """Unit hypercubes of dimension 1..max_dim nested in max_dim-space.

    Cube m contributes n_per_cube points uniform in [-1/2, 1/2]**m,
    embedded in the first m coordinates (zeros elsewhere), so any two
    cubes intersect in a subspace spanning the smaller dimension. With
    ``rotate`` one random global rotation is applied to all points, which
    leaves all angle statistics unchanged. Returns (matrix, labels) where
    labels[i] is the source-cube dimension of row i.
    """
    max_dim = _check_integer("max_dim", max_dim)
    n_per_cube = _check_integer("n_per_cube", n_per_cube)
    if max_dim > 8:
        raise ValueError(f"max_dim must be in 1..8, got {max_dim}")
    rng = _rng(seed)
    blocks = []
    labels = []
    for m in range(1, max_dim + 1):
        block = np.zeros((n_per_cube, max_dim))
        block[:, :m] = rng.uniform(-0.5, 0.5, size=(n_per_cube, m))
        blocks.append(block)
        labels.append(np.full(n_per_cube, m, dtype=np.int64))
    pts = np.vstack(blocks)
    if rotate:
        pts = pts @ _random_rotation(max_dim, rng).T
    return DataMatrix(pts), np.concatenate(labels)


def offset_disc(n: int, h: float, seed: int) -> tuple[DataMatrix, np.ndarray]:
    """n points uniform on a unit 2-disc in the z=0 plane, query at (0,0,h).

    The query's neighborhood lies in a cone that narrows as h grows: all
    neighbor directions become nearly parallel, the mean cosine tends to 1,
    and angle-based estimates tend to 1 while distance-based estimates
    blow up (all neighbor distances become nearly equal).
    """
    n = _check_integer("n", n, 3)
    if not 0.0 <= h < math.inf:
        raise ValueError(f"offset must be finite and >= 0, got {h}")
    disc = sample_ball(n, 2, seed).points
    pts = np.hstack([disc, np.zeros((n, 1))])
    return DataMatrix(pts), np.array([0.0, 0.0, float(h)])


def noisy_line(n: int, length: float = 1.0, width_ratio: float = 0.04, seed: int = 0) -> DataMatrix:
    """n points uniform in a thin axis-aligned rectangle (a noised segment)."""
    n = _check_integer("n", n)
    if not (0.0 < length < math.inf and 0.0 <= width_ratio < math.inf
            and width_ratio * length < math.inf):
        raise ValueError(f"need finite length > 0 and width_ratio >= 0 with a finite width, "
                         f"got length={length}, width_ratio={width_ratio}")
    rng = _rng(seed)
    width = width_ratio * length
    x = rng.uniform(0.0, length, n)
    y = rng.uniform(-width / 2.0, width / 2.0, n)
    return DataMatrix(np.column_stack([x, y]))


@dataclass(frozen=True)
class Generated:
    """Generator output: the matrix plus shape-specific extras."""

    matrix: DataMatrix
    labels: np.ndarray | None = None
    query: np.ndarray | None = None


@dataclass(frozen=True)
class GeneratorSpec:
    """A fully reproducible dataset recipe: shape tag, parameters, n, seed."""

    shape: str
    n: int | None = None
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; valid: {list(SHAPES)}")


def generate(spec: GeneratorSpec) -> Generated:
    """Materialize a GeneratorSpec; identical specs give bit-identical data.

    A missing n or d, or a value out of range, raises a ValueError;
    parameters the shape does not take are ignored.
    """
    p = spec.params
    shape, n, seed = spec.shape, spec.n, spec.seed
    if n is None and shape not in ("lattice", "nested_cubes"):
        raise ValueError(f"shape {shape!r} needs n")
    clouds = {"ball": sample_ball, "sphere": sample_sphere, "gaussian": sample_gaussian}
    if shape in clouds:
        if "d" not in p:
            raise ValueError(f"shape {shape!r} needs d")
        return Generated(clouds[shape](n, p["d"], seed))
    if shape == "koch":
        return Generated(koch_snowflake(p.get("depth", 6), n, seed))
    if shape == "lattice":
        matrix = jittered_lattice(
            p.get("dims", 8),
            p.get("levels", LATTICE_LEVELS),
            p.get("jitter_max", LATTICE_JITTER_MAX),
            seed,
        )
        return Generated(matrix)
    if shape == "nested_cubes":
        matrix, labels = nested_hypercubes(
            p.get("max_dim", 5), p.get("n_per_cube", 5000), p.get("rotate", False), seed
        )
        return Generated(matrix, labels=labels)
    if shape == "offset_disc":
        matrix, query = offset_disc(n, p.get("h", 0.0), seed)
        return Generated(matrix, query=query)
    matrix = noisy_line(n, p.get("length", 1.0), p.get("width_ratio", 0.04), seed)
    return Generated(matrix)


def _unit_rows(pts: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    return pts / norms[:, None]


def _random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random rotation via QR with the sign convention fixed."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
