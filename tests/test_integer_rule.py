"""Every count, dimension, depth, seed and iteration limit follows core's one integer rule.

The rule (``core._check_integer``) accepts Python and numpy integers of at
least a minimum and refuses bools, floats and strings with one message.
The list, pair and index checks (``_check_k_values``, ``_check_ged_pair``,
``_check_indices``) keep their own messages and are tested where they live.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from angleid import synth, theory
from angleid.analysis import TrailMatrix, trails
from angleid.angle_id import CosineSquareStats, abid_via_fixed_point, estimate_table, required_k
from angleid.neighbors import direction_bundle, knn

_DATA = synth.sample_ball(40, 3, 0)
_NL = knn(_DATA, 0, 5)
_BUNDLE = direction_bundle(_DATA, 0, _NL)
# Four equal directions (mean squared cosine 1): the fixed point is reached in one step.
_STATS = CosineSquareStats(4, 12.0, 1.0)
_TRAIL = TrailMatrix((1, 2, 3), np.zeros((1, 3)), "abid", (0,))

# (id, parameter name, minimum, call with the value under test)
_USERS = [
    ("ball_n", "n", 1, lambda v: synth.sample_ball(v, 3, 0)),
    ("ball_d", "d", 1, lambda v: synth.sample_ball(5, v, 0)),
    ("ball_seed", "seed", 0, lambda v: synth.sample_ball(5, 2, v)),
    ("sphere_seed", "seed", 0, lambda v: synth.sample_sphere(5, 2, v)),
    ("gaussian_seed", "seed", 0, lambda v: synth.sample_gaussian(5, 2, v)),
    ("koch_depth", "depth", 0, lambda v: synth.koch_polyline(v)),
    ("koch_seed", "seed", 0, lambda v: synth.koch_snowflake(1, 5, v)),
    ("lattice_dims", "dims", 1, lambda v: synth.jittered_lattice(v)),
    ("lattice_seed", "seed", 0, lambda v: synth.jittered_lattice(2, seed=v)),
    ("cubes_max_dim", "max_dim", 1, lambda v: synth.nested_hypercubes(v, 5)),
    ("cubes_n_per_cube", "n_per_cube", 1, lambda v: synth.nested_hypercubes(2, v)),
    ("cubes_seed", "seed", 0, lambda v: synth.nested_hypercubes(2, 5, seed=v)),
    ("offset_disc_n", "n", 3, lambda v: synth.offset_disc(v, 1.0, 0)),
    ("offset_disc_seed", "seed", 0, lambda v: synth.offset_disc(5, 1.0, v)),
    ("line_seed", "seed", 0, lambda v: synth.noisy_line(5, seed=v)),
    ("angle_pdf_d", "d", 2, lambda v: theory.angle_pdf(0.5, v)),
    ("cosine_pdf_d", "d", 2, lambda v: theory.cosine_pdf(0.5, v)),
    ("cosine_cdf_d", "d", 2, lambda v: theory.cosine_cdf(0.5, v)),
    ("cosine_moments_d", "d", 1, lambda v: theory.cosine_moments(v)),
    ("sample_cosines_d", "d", 1, lambda v: theory.sample_cosines(v, 5, 0)),
    ("sample_cosines_n", "n", 1, lambda v: theory.sample_cosines(3, v, 0)),
    ("sample_cosines_seed", "seed", 0, lambda v: theory.sample_cosines(3, 5, v)),
    ("table_k", "k", 1, lambda v: estimate_table(_DATA, v, estimators=["abid"], queries=[0])),
    ("table_threads", "threads", 1,
     lambda v: estimate_table(_DATA, 5, estimators=["abid"], queries=[0], threads=v)),
    ("trails_threads", "threads", 1,
     lambda v: trails(_DATA, [3, 5], "abid", point_subset=[0], threads=v)),
    ("neighbor_prefix", "k", 1, lambda v: _NL.prefix(v)),
    ("trail_column", "k", 1, lambda v: _TRAIL.column(v)),
    ("bundle_prefix", "k", 1, lambda v: _BUNDLE.prefix(v)),
    ("required_k_d", "d", 1, lambda v: required_k(v, 1.0)),
    ("fixed_point_max_iter", "max_iter", 1, lambda v: abid_via_fixed_point(_STATS, max_iter=v)),
]


def _bad_values(minimum: int) -> list:
    return [True, np.True_, 2.0, np.float64(2), "3", minimum - 1]


@pytest.mark.parametrize("name, minimum, call", [u[1:] for u in _USERS],
                         ids=[u[0] for u in _USERS])
def test_every_user_refuses_what_the_rule_refuses(name, minimum, call):
    rule = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
    for value in _bad_values(minimum):
        with pytest.raises(ValueError, match=f"^{name} must be {re.escape(rule)}, "
                                             f"got {re.escape(repr(value))}$"):
            call(value)


@pytest.mark.filterwarnings("ignore::angleid.angle_id.NeighborhoodSizeWarning")
@pytest.mark.parametrize("name, minimum, call", [u[1:] for u in _USERS],
                         ids=[u[0] for u in _USERS])
def test_every_user_accepts_a_numpy_integer_at_the_minimum(name, minimum, call):
    call(np.int64(minimum))


def test_a_numpy_seed_gives_the_data_of_the_int_seed():
    assert np.array_equal(synth.sample_ball(20, 3, np.int64(3)).points,
                          synth.sample_ball(20, 3, 3).points)
    assert np.array_equal(theory.sample_cosines(4, 20, np.int64(3)),
                          theory.sample_cosines(4, 20, 3))


def test_only_core_makes_random_generators():
    # Every seed goes through core's ``_rng``, so a new generator cannot skip the seed rule.
    src = Path(__file__).resolve().parents[1] / "src" / "angleid"
    users = sorted(p.name for p in src.glob("*.py") if "default_rng" in p.read_text())
    assert users == ["core.py"]
