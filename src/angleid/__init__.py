"""Angle-based local intrinsic dimensionality estimation.

The package estimates, per point, how many dimensions are needed to
explain a point's k-nearest neighborhood, from the pairwise cosine
similarities of neighbor directions (ABID/RABID) and from classical
distance-based references (Hill/MLE, method of moments, expansion
dimension). It ships the exact angle/cosine distributions behind the
estimators, seeded synthetic dataset generators, and aggregation helpers
for histograms, stability trails, and correlations.
"""

from .core import (
    ANGLE_TAGS,
    CLAMPED_TO_K,
    DEGENERATE_ZERO_DENOMINATOR,
    DISTANCE_TAGS,
    ESTIMATOR_TAGS,
    FLAG_BITS,
    AngleIdError,
    CsvFormatError,
    DataMatrix,
    DegenerateInputError,
    EstimateTable,
    FixedPointDivergenceError,
    IdEstimate,
    InsufficientNeighborsError,
    load_csv,
    write_csv,
)
from .neighbors import DirectionBundle, NeighborList, direction_bundle, knn
from .angle_id import (
    CosineSquareStats,
    NeighborhoodSizeWarning,
    abid,
    abid_via_fixed_point,
    cosine_square_stats,
    estimate_point,
    estimate_table,
    rabid,
    required_k,
)
from .baseline_id import ged, mle_hill, mom
from .analysis import Histogram, TrailMatrix, histogram, pearson, spearman, trails
from .synth import (
    Generated,
    GeneratorSpec,
    generate,
    jittered_lattice,
    koch_polyline,
    koch_snowflake,
    nested_hypercubes,
    noisy_line,
    offset_disc,
    sample_ball,
    sample_gaussian,
    sample_sphere,
)
from . import theory

__version__ = "0.1.0"
