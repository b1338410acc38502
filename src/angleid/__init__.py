"""Angle-based local intrinsic dimensionality estimation.

The package estimates, per point, how many dimensions are needed to
explain a point's k-nearest neighborhood, from the pairwise cosine
similarities of neighbor directions (ABID/RABID) and from classical
distance-based references (Hill/MLE, method of moments, expansion
dimension). It ships the exact angle/cosine distributions behind the
estimators, seeded synthetic dataset generators, and aggregation helpers
for histograms, stability trails, and correlations.

``import angleid`` loads no submodule: each public name below, and each
submodule (``angleid.theory``, ...), is imported on first use (PEP 562).
So the CLI loads only the modules of the command it runs.
"""

import importlib

# Each submodule and the public names it gives the package.
_EXPORTS = {
    "core": (
        "ANGLE_TAGS",
        "CLAMPED_TO_K",
        "DEGENERATE_ZERO_DENOMINATOR",
        "DISTANCE_TAGS",
        "ESTIMATOR_TAGS",
        "FLAG_BITS",
        "AngleIdError",
        "CsvFormatError",
        "DataMatrix",
        "DegenerateInputError",
        "EstimateTable",
        "FixedPointDivergenceError",
        "IdEstimate",
        "InsufficientNeighborsError",
        "load_csv",
        "write_csv",
    ),
    "neighbors": ("DirectionBundle", "NeighborList", "direction_bundle", "knn"),
    "angle_id": (
        "CosineSquareStats",
        "NeighborhoodSizeWarning",
        "abid",
        "abid_via_fixed_point",
        "cosine_square_stats",
        "estimate_point",
        "estimate_table",
        "rabid",
        "required_k",
    ),
    "baseline_id": ("ged", "mle_hill", "mom"),
    "analysis": ("Histogram", "TrailMatrix", "histogram", "pearson", "spearman", "trails"),
    "synth": (
        "Generated",
        "GeneratorSpec",
        "generate",
        "jittered_lattice",
        "koch_polyline",
        "koch_snowflake",
        "nested_hypercubes",
        "noisy_line",
        "offset_disc",
        "sample_ball",
        "sample_gaussian",
        "sample_sphere",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "theory")

__all__ = [*_HOME, "theory"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing it binds it here, so this runs once per submodule
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
