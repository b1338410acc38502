import math

import numpy as np
import pytest

from angleid import theory
from angleid.angle_id import cosine_square_stats, estimate_point
from angleid.neighbors import direction_bundle, knn
from angleid.synth import (
    LATTICE_LEVELS,
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


def _norms(points):
    return np.linalg.norm(points, axis=1)


class TestBall:
    def test_inside_unit_ball(self):
        pts = sample_ball(5000, 4, seed=0).points
        assert np.all(_norms(pts) <= 1.0)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_mean_radius(self, d):
        """E[R] = d/(d+1) for the uniform ball."""
        r = _norms(sample_ball(20_000, d, seed=d).points)
        se = float(r.std()) / math.sqrt(r.size)
        assert abs(float(r.mean()) - d / (d + 1)) < 3.0 * se

    def test_pair_cosines_follow_cosine_law(self):
        pts = sample_ball(10_000, 3, seed=1).points
        unit = pts / _norms(pts)[:, None]
        cos = np.einsum("ij,ij->i", unit[0::2], unit[1::2])
        stat = theory.ks_statistic(cos, lambda x: theory.cosine_cdf(x, 3))
        assert stat < theory.KS_CRITICAL_1PCT / math.sqrt(cos.size)


class TestSphereAndGaussian:
    def test_sphere_norms(self):
        pts = sample_sphere(3000, 5, seed=2).points
        assert np.max(np.abs(_norms(pts) - 1.0)) < 1e-12

    def test_gaussian_coordinate_variance(self):
        pts = sample_gaussian(20_000, 3, seed=3).points
        for j in range(3):
            v = pts[:, j].var()
            se = math.sqrt(2.0 / pts.shape[0])
            assert abs(v - 1.0) < 3.0 * se

    @pytest.mark.parametrize("maker,d", [(sample_sphere, 2), (sample_sphere, 5), (sample_gaussian, 3)])
    def test_angle_statistics_match_angle_law(self, maker, d):
        """Pair angles about the origin follow the closed-form angle law."""
        pts = maker(8000, d, seed=4).points
        unit = pts / _norms(pts)[:, None]
        cos = np.einsum("ij,ij->i", unit[0::2], unit[1::2])
        angles = np.arccos(np.clip(cos, -1.0, 1.0))
        cdf = lambda t: np.array(  # noqa: E731
            [1.0 - theory.cosine_cdf(math.cos(v), d) for v in np.atleast_1d(t)]
        )
        stat = theory.ks_statistic(angles, cdf)
        assert stat < theory.KS_CRITICAL_1PCT / math.sqrt(angles.size)


def _segment_distances(pts, vertices):
    """Oracle: distance from each point to the nearest polyline segment."""
    a, b = vertices[:-1], vertices[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("nmj,mj->nm", ap, ab) / denom, 0.0, 1.0)
    proj = a[None, :, :] + t[..., None] * ab[None, :, :]
    return np.min(np.linalg.norm(pts[:, None, :] - proj, axis=-1), axis=1)


class TestKoch:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, np.int64(2)])
    def test_segment_count_and_length(self, depth):
        v = koch_polyline(depth)
        seg_count = len(v) - 1
        assert seg_count == 3 * 4**depth
        lengths = np.linalg.norm(np.diff(v, axis=0), axis=1)
        assert np.allclose(lengths, 3.0**-depth, atol=1e-12)
        assert np.sum(lengths) == pytest.approx(3.0 * (4.0 / 3.0) ** depth, rel=1e-12)
        assert np.array_equal(v[0], v[-1])

    def test_depth_above_ten_is_rejected(self):
        with pytest.raises(ValueError, match="limit is 10"):
            koch_polyline(11)

    @pytest.mark.parametrize("depth", [2.0, True, np.float64(2)], ids=repr)
    def test_depth_must_be_an_integer(self, depth):
        # A float or bool depth is refused, not truncated or read as 1.
        with pytest.raises(ValueError, match="depth must be an integer"):
            koch_polyline(depth)
        with pytest.raises(ValueError, match="depth must be an integer"):
            generate(GeneratorSpec("koch", n=10, params={"depth": depth}))

    def test_depth_zero_is_triangle(self):
        pts = koch_snowflake(0, 500, seed=5).points
        tri = koch_polyline(0)
        assert np.max(_segment_distances(pts, tri)) < 1e-12

    def test_samples_lie_on_curve(self):
        pts = koch_snowflake(4, 1500, seed=6).points
        assert np.max(_segment_distances(pts, koch_polyline(4))) < 1e-12

    def test_shape(self):
        m = koch_snowflake(6, 2000, seed=7)
        assert (m.n, m.dim) == (2000, 2)


class TestLattice:
    def test_one_dimensional(self):
        m = jittered_lattice(dims=1, seed=8)
        assert m.n == 4
        assert np.all((m.points >= 0.0) & (m.points <= 4.0 / 3.0))

    def test_counts(self):
        assert jittered_lattice(dims=2, seed=0).n == 16
        assert jittered_lattice(dims=8, seed=0).n == 65536

    def test_jitter_bounds(self):
        pts = jittered_lattice(dims=3, seed=9).points
        assert np.all(pts >= 0.0)
        assert np.all(pts <= 1.0 + 1.0 / 3.0)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="limit"):
            jittered_lattice(dims=11)

    @pytest.mark.parametrize("dims, levels, allowed", [
        (10, LATTICE_LEVELS, True),
        (8, range(5), True),
        (10, range(6), False),
        (9, range(5), False),
        (np.int64(10), range(100), False),
    ])
    def test_point_guard_fires_before_the_grid_is_built(self, monkeypatch, dims, levels, allowed):
        # No grid is ever built: an allowed lattice stops at meshgrid.
        def no_grid(*args, **kwargs):
            raise AssertionError("meshgrid ran")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        n = len(levels)
        if allowed:
            with pytest.raises(AssertionError, match="meshgrid ran"):
                jittered_lattice(dims=dims, levels=levels)
        else:
            with pytest.raises(ValueError, match=rf"would emit {n}\*\*{dims} points; limit is 4\*\*10$"):
                jittered_lattice(dims=dims, levels=levels)


class TestNestedHypercubes:
    def test_counts_and_labels(self):
        m, labels = nested_hypercubes(max_dim=5, n_per_cube=100, seed=10)
        assert m.n == 500
        assert m.dim == 5
        assert [int(c) for c in np.bincount(labels)[1:]] == [100] * 5

    def test_axis_nesting(self):
        m, labels = nested_hypercubes(max_dim=4, n_per_cube=50, seed=11)
        for cube in range(1, 5):
            block = m.points[labels == cube]
            assert np.all(block[:, cube:] == 0.0)
            if cube < 4:
                assert np.any(block[:, :cube] != 0.0)

    def test_rotation_leaves_abid_nearly_unchanged(self):
        plain, labels = nested_hypercubes(max_dim=3, n_per_cube=400, seed=12)
        rotated, labels_r = nested_hypercubes(max_dim=3, n_per_cube=400, rotate=True, seed=12)
        assert np.array_equal(labels, labels_r)
        for q in range(0, 1200, 97):
            a = estimate_point(plain, q, 40)["abid"].value
            b = estimate_point(rotated, q, 40)["abid"].value
            assert b == pytest.approx(a, abs=1e-6)


class TestOffsetDisc:
    def test_geometry(self):
        m, query = offset_disc(300, h=2.5, seed=13)
        assert m.dim == 3
        assert np.all(m.points[:, 2] == 0.0)
        assert np.all(_norms(m.points[:, :2]) <= 1.0)
        assert list(query) == [0.0, 0.0, 2.5]

    def test_in_plane_query_sees_two_dimensions(self):
        m, query = offset_disc(200, h=0.0, seed=14)
        est = estimate_point(m, query, 200)
        assert est["abid"].value == pytest.approx(2.0, abs=0.4)

    def test_far_query_sees_narrow_cone(self):
        m, query = offset_disc(200, h=20.0, seed=15)
        nl = knn(m, query, 200)
        stats = cosine_square_stats(direction_bundle(m, query, nl))
        assert stats.mean_cosine > 0.99


class TestNoisyLine:
    def test_bounds(self):
        m = noisy_line(1000, length=5.0, width_ratio=0.04, seed=16)
        assert np.all((m.points[:, 0] >= 0.0) & (m.points[:, 0] <= 5.0))
        assert np.all(np.abs(m.points[:, 1]) <= 0.1)


class TestGeneratorSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("ball", n=200, seed=1, params={"d": 3}),
            GeneratorSpec("sphere", n=200, seed=2, params={"d": 4}),
            GeneratorSpec("gaussian", n=200, seed=3, params={"d": 2}),
            GeneratorSpec("koch", n=200, seed=4, params={"depth": 3}),
            GeneratorSpec("lattice", seed=5, params={"dims": 3}),
            GeneratorSpec("nested_cubes", seed=6, params={"max_dim": 3, "n_per_cube": 50}),
            GeneratorSpec("offset_disc", n=50, seed=7, params={"h": 1.0}),
            GeneratorSpec("line", n=100, seed=8),
        ],
    )
    def test_identical_specs_are_bit_identical(self, spec):
        a: Generated = generate(spec)
        b: Generated = generate(spec)
        assert np.array_equal(a.matrix.points, b.matrix.points)
        if a.labels is not None:
            assert np.array_equal(a.labels, b.labels)
        if a.query is not None:
            assert np.array_equal(a.query, b.query)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown shape"):
            GeneratorSpec("donut", n=10)


@pytest.mark.parametrize("make", [
    lambda v: jittered_lattice(2, jitter_max=v),
    lambda v: noisy_line(5, length=v),
    lambda v: noisy_line(5, width_ratio=v),
    lambda v: offset_disc(5, v, seed=0),
], ids=["lattice_jitter_max", "line_length", "line_width_ratio", "offset_disc_h"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameters_are_rejected(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_a_line_whose_width_overflows_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        noisy_line(5, length=1e308, width_ratio=10.0)


@pytest.mark.parametrize("make", [
    lambda v: sample_ball(v, 3, 0),
    lambda v: sample_ball(5, v, 0),
    lambda v: sample_sphere(v, 3, 0),
    lambda v: sample_sphere(5, v, 0),
    lambda v: sample_gaussian(v, 3, 0),
    lambda v: sample_gaussian(5, v, 0),
    lambda v: koch_snowflake(2, v, 0),
    lambda v: jittered_lattice(v),
    lambda v: nested_hypercubes(v, 5),
    lambda v: nested_hypercubes(2, v),
    lambda v: offset_disc(v, 1.0, 0),
    lambda v: noisy_line(v),
], ids=["ball_n", "ball_d", "sphere_n", "sphere_d", "gaussian_n", "gaussian_d", "koch_n",
        "lattice_dims", "cubes_max_dim", "cubes_n_per_cube", "offset_disc_n", "line_n"])
@pytest.mark.parametrize("value", [2.5, True, np.bool_(True), 0], ids=repr)
def test_counts_must_be_positive_integers(request, make, value):
    # offset_disc's n has the rule's minimum 3.
    rule = "an integer >= 3" if "offset_disc_n" in request.node.callspec.id else "a positive integer"
    with pytest.raises(ValueError, match=f"must be {rule}"):
        make(value)
