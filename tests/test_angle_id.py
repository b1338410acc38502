import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angleid import angle_id
from angleid.angle_id import (
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
from angleid.core import (
    CLAMPED_TO_K,
    DEGENERATE_ZERO_DENOMINATOR,
    FLAG_BITS,
    DataMatrix,
    _FLAG_SETS,
    FixedPointDivergenceError,
    InsufficientNeighborsError,
)
from angleid.neighbors import DirectionBundle
from angleid.synth import offset_disc, sample_ball


def _bundle(rows) -> DirectionBundle:
    arr = np.asarray(rows, dtype=np.float64)
    return DirectionBundle(arr, arr.shape[0])


def _random_bundle(rng, k, dim) -> DirectionBundle:
    v = rng.standard_normal((k, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return DirectionBundle(v, k)


def _double_loop_off_diag(directions) -> tuple[float, float]:
    """Independent O(k^2 D) oracle for the off-diagonal cosine sums."""
    k = len(directions)
    sq = 0.0
    plain = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            c = float(np.dot(directions[i], directions[j]))
            sq += c * c
            plain += c
    return sq, plain / (k * k - k) if k > 1 else 0.0


class TestCosineSquareStats:
    def test_enumerated_example(self):
        # {e1, e2, e1}: ordered off-diagonal cosines are (0,1,0,0,1,0).
        s = cosine_square_stats(_bundle([[1, 0], [0, 1], [1, 0]]))
        assert s.k == 3
        assert s.off_diag_sq_sum == pytest.approx(2.0, abs=1e-14)
        assert s.mean_cosine == pytest.approx(1 / 3, abs=1e-14)

    def test_antipodal_pair_1d(self):
        s = cosine_square_stats(_bundle([[1.0], [-1.0]]))
        assert s.off_diag_sq_sum == 2.0
        assert s.mean_cosine == -1.0

    def test_single_direction(self):
        s = cosine_square_stats(_bundle([[1.0, 0.0]]))
        assert (s.k, s.off_diag_sq_sum, s.mean_cosine) == (1, 0.0, 0.0)

    def test_no_directions_are_too_few_neighbors_as_for_abid(self):
        errors = []
        for call in (lambda: cosine_square_stats(DirectionBundle(np.empty((0, 2)), 0)),
                     lambda: abid(CosineSquareStats(0, 0.0, 0.0))):
            with pytest.raises(InsufficientNeighborsError) as exc:
                call()
            errors.append((exc.value.required, exc.value.available, exc.value.point))
        assert errors == [(1, 0, None)] * 2

    @pytest.mark.parametrize("off, mean", [(np.nan, 0.0), (np.inf, 0.0), (2.0, np.nan),
                                           (2.0, -np.inf)])
    def test_a_user_built_statistic_must_be_finite(self, off, mean):
        with pytest.raises(ValueError, match="^off_diag_sq_sum and mean_cosine must be finite$"):
            CosineSquareStats(3, off, mean)

    def test_a_numpy_k_is_kept_as_an_int(self):
        s = CosineSquareStats(np.int64(3), 2.0, 1 / 3)
        assert type(s.k) is int and type(abid(s).k) is int
        assert abid(s) == abid(CosineSquareStats(3, 2.0, 1 / 3))

    @pytest.mark.parametrize("k,dim", [(2, 1), (5, 3), (20, 4), (50, 10), (10, 40)])
    def test_gram_path_matches_double_loop(self, k, dim):
        rng = np.random.default_rng(k * 100 + dim)
        b = _random_bundle(rng, k, dim)
        s = cosine_square_stats(b)
        sq, mean = _double_loop_off_diag(b.directions)
        assert s.off_diag_sq_sum == pytest.approx(sq, abs=1e-10)
        assert s.mean_cosine == pytest.approx(mean, abs=1e-10)

    def test_bounds_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 30))
            b = _random_bundle(rng, k, int(rng.integers(1, 6)))
            s = cosine_square_stats(b)
            assert 0.0 <= s.off_diag_sq_sum <= k * k - k
            assert 0.0 < s.mean_sq_cosine_with_diagonal <= 1.0


@pytest.mark.parametrize("dim", [*range(1, 40), 64, 128, 256, 784])
def test_mean_cosines_round_like_one_dot_per_row(dim):
    # ``_mean_cosines`` takes one stacked matmul over the C-contiguous rows of
    # u.sum(axis=1); this numpy must round each row like the 1-d ``r @ r``.
    rng = np.random.default_rng(dim)
    u = rng.standard_normal((100, 4, dim))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    dots = np.array([float(r @ r) for r in u.sum(axis=1)])
    want = np.clip((dots - 4) / 12, -1.0, 1.0)
    for rows in range(1, len(u) + 1):
        assert angle_id._mean_cosines(u[:rows]).tobytes() == want[:rows].tobytes(), rows


def _unit_rows(kind: str, k_max: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "orthonormal":
        # Signed, permuted rows of the identity: every cosine is exactly 0 or 1.
        rows = np.eye(dim)[rng.permutation(dim)[:k_max]]
        return rows * rng.choice([-1.0, 1.0], size=(len(rows), 1))
    if kind == "gaussian":
        v = rng.standard_normal((k_max, dim))
    elif kind == "lattice":
        # Integer directions: many exact zeros and repeated cosines.
        v = rng.integers(-2, 3, size=(k_max, dim)).astype(float)
        v[~v.any(axis=1), 0] = 1.0
    else:  # a tight cluster: cosines near 1, sums near k**2
        v = rng.standard_normal(dim) + 1e-3 * rng.standard_normal((k_max, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestSqSums:
    """``_sq_sums`` against the explicit pairwise-cosine sums, on both sides of the Gram identity."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_explicit_pairwise_sum_at_every_k(self, draw):
        kind = draw.draw(st.sampled_from(["gaussian", "lattice", "cluster", "orthonormal"]))
        dim = draw.draw(st.integers(1, 80), label="D")
        k_max = draw.draw(st.integers(1, dim if kind == "orthonormal" else 60), label="k_max")
        u = _unit_rows(kind, min(k_max, 60), dim, draw.draw(st.integers(0, 2**32 - 1)))
        k_max = len(u)
        ks = sorted(set(draw.draw(st.lists(st.integers(1, k_max), min_size=1), label="ks")))
        got = angle_id._sq_sums(u[None], ks)[0]
        # The oracle sums the explicit k-by-k squared cosines in extended precision.
        ul = u.astype(np.longdouble)
        sq = (ul @ ul.T) ** 2
        for j, k in enumerate(ks):
            want = sq[:k, :k].sum()
            assert abs(got[j] - want) <= 1e-13 * want, (k, got[j], want)
            # S(k) depends on the first k rows alone, bitwise.
            assert angle_id._sq_sums(np.array(u[None, :k]), [k])[0, 0] == got[j], k
        if kind == "orthonormal":
            assert got.tolist() == [float(k) for k in ks]

    @pytest.mark.parametrize("k,dim", [(1, 1), (2, 2), (3, 3), (5, 40), (60, 80)])
    def test_orthonormal_rows_give_exact_zeros(self, k, dim):
        u = np.eye(dim)[:k]
        s = cosine_square_stats(_bundle(u))
        assert s.off_diag_sq_sum == 0.0
        assert abid(s).value == float(k)
        values, _ = angle_id._estimates(u[None], None, ("abid",), list(range(1, k + 1)), None)["abid"]
        assert values[0].tolist() == [float(j) for j in range(1, k + 1)]
        if k >= 2:
            assert rabid(s).flags == {CLAMPED_TO_K, DEGENERATE_ZERO_DENOMINATOR}
            _, flags = angle_id._estimates(u[None], None, ("rabid",), list(range(2, k + 1)), None)["rabid"]
            assert np.all(flags == FLAG_BITS[CLAMPED_TO_K] | FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR])

    def test_single_k_is_the_same_arithmetic_as_every_k(self):
        rng = np.random.default_rng(3)
        for dim in (3, 12):
            u = _random_bundle(rng, 30, dim).directions
            every = angle_id._estimates(u[None], None, ("abid", "rabid"), list(range(2, 31)), None)
            for j, k in enumerate(range(2, 31)):
                stats = cosine_square_stats(DirectionBundle(u[:k], k))
                assert every["abid"][0][0, j] == abid(stats).value
                values, flags = every["rabid"]
                assert (values[0, j], _FLAG_SETS[flags[0, j]]) == (rabid(stats).value, rabid(stats).flags)


class TestAbid:
    def test_hand_example(self):
        assert abid(CosineSquareStats(3, 2.0, 1 / 3)).value == pytest.approx(1.8, abs=1e-15)

    def test_identical_directions(self):
        s = cosine_square_stats(_bundle([[0.0, 1.0]] * 7))
        est = abid(s)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert not est.flags

    def test_orthonormal_frame(self):
        s = cosine_square_stats(_bundle(np.eye(3)))
        assert abid(s).value == pytest.approx(3.0, abs=1e-12)

    def test_never_exceeds_k(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(1, 40))
            s = cosine_square_stats(_random_bundle(rng, k, int(rng.integers(1, 8))))
            assert abid(s).value <= k


class TestRabid:
    def test_hand_example(self):
        assert rabid(CosineSquareStats(3, 2.0, 1 / 3)).value == pytest.approx(3.0, abs=1e-15)

    def test_orthogonal_clamps_to_k(self):
        est = rabid(cosine_square_stats(_bundle(np.eye(3))))
        assert est.value == 3.0
        assert est.flags == {CLAMPED_TO_K, DEGENERATE_ZERO_DENOMINATOR}

    def test_identical_directions(self):
        est = rabid(cosine_square_stats(_bundle([[1.0, 0.0]] * 5)))
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_neighbors(self):
        with pytest.raises(InsufficientNeighborsError):
            rabid(CosineSquareStats(1, 0.0, 0.0))

    def test_value_above_k_clamps(self):
        # k=3 with a tiny but nonzero off-diagonal sum: raw value 6/eps >> 3.
        est = rabid(CosineSquareStats(3, 1e-9, 0.0))
        assert est.value == 3.0
        assert est.flags == {CLAMPED_TO_K}


class TestFixedPoint:
    def test_hand_example(self):
        s = CosineSquareStats(3, 2.0, 1 / 3)
        assert abid_via_fixed_point(s) == pytest.approx(abid(s).value, abs=1e-9)

    def test_identical_directions(self):
        s = cosine_square_stats(_bundle([[1.0, 0.0]] * 4))
        assert abid_via_fixed_point(s) == pytest.approx(1.0, abs=1e-9)

    def test_identical_pair_converges_immediately(self):
        # k=2 with mean squared cosine 1 sits exactly on the oscillation
        # boundary, but the start value is already the fixed point.
        s = cosine_square_stats(_bundle([[1.0, 0.0]] * 2))
        assert abid_via_fixed_point(s) == pytest.approx(1.0, abs=1e-12)

    def test_oscillation_boundary_raises(self):
        # m * (k-1) == 1 with a start away from the fixed point.
        with pytest.raises(FixedPointDivergenceError):
            abid_via_fixed_point(CosineSquareStats(3, 3.0, 0.0))

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            abid_via_fixed_point(CosineSquareStats(3, 0.0, 0.0))

    def test_one_neighbor_is_too_few(self):
        with pytest.raises(InsufficientNeighborsError) as exc:
            abid_via_fixed_point(CosineSquareStats(1, 0.0, 0.0))
        assert (exc.value.required, exc.value.available, exc.value.point) == (2, 1, None)

    def test_exhausted_iterations_raise(self):
        # The hand example converges, but not within three steps.
        s = CosineSquareStats(3, 2.0, 1 / 3)
        with pytest.raises(FixedPointDivergenceError, match="^no convergence after 3 iterations$"):
            abid_via_fixed_point(s, max_iter=3)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, np.nan, np.inf], ids=repr)
    def test_tol_must_be_positive_and_finite(self, tol):
        # Equal iterates would stop at once, but a zero or NaN tol never stops.
        s = CosineSquareStats(4, 12.0, 1.0)
        with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol!r}$"):
            abid_via_fixed_point(s, tol=tol)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_abid_on_random_bundles(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            k = int(rng.integers(5, 60))
            s = cosine_square_stats(_random_bundle(rng, k, int(rng.integers(1, 5))))
            assert abid_via_fixed_point(s) == pytest.approx(abid(s).value, abs=1e-9)


class TestRequiredK:
    def test_unit_budget_needs_d_squared(self):
        assert required_k(5, 1.0) == 25

    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 10.0])
    def test_d_one_is_always_one(self, c):
        assert required_k(1, c) == 1

    def test_direct_formula(self):
        assert required_k(4, 2.0) == 10

    def test_matches_exact_rational_arithmetic(self):
        from fractions import Fraction

        for d in range(1, 12):
            for num, den in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (5, 2)]:
                c = num / den
                exact = Fraction(d * d * den, num) + (1 - Fraction(den, num)) * d
                assert required_k(d, c) == math.ceil(exact)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_k(0, 1.0)
        with pytest.raises(ValueError):
            required_k(3, 0.0)

    @pytest.mark.parametrize("d", [2.5, 2.0, True, np.bool_(True), np.float64(3.0), "3"])
    def test_d_must_be_an_integer_and_not_a_bool(self, d):
        with pytest.raises(ValueError, match="^d must be a positive integer, got "):
            required_k(d, 1.0)

    def test_a_numpy_integer_d_is_an_integer(self):
        assert required_k(np.int64(5), 1.0) == 25


def _subspace_instances(count, seed):
    """k unit vectors spanning an exact d-dimensional subspace of R^D."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 7))
        k = int(rng.integers(d + 2, 101))
        ambient = d + int(rng.integers(0, 5))
        basis = np.linalg.qr(rng.standard_normal((ambient, ambient)))[0][:, :d]
        coeffs = rng.standard_normal((k, d))
        x = coeffs @ basis.T
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        assert np.all(norms > 0)
        yield d, k, DirectionBundle(x / norms, k)


class TestSubspaceBounds:
    def test_abid_upper_bound(self):
        for d, k, bundle in _subspace_instances(120, seed=11):
            value = abid(cosine_square_stats(bundle)).value
            assert value <= d + 1e-9, (d, k, value)

    def test_rabid_bound_before_clamping(self):
        for d, k, bundle in _subspace_instances(120, seed=12):
            s = cosine_square_stats(bundle)
            raw = (k * k - k) / s.off_diag_sq_sum
            assert raw <= (k - 1) / (k - d) * d + 1e-9, (d, k, raw)


class TestAlgebraicIdentities:
    def test_diagonal_identity_interconverts(self):
        """abid reconstructed from the off-diagonal mean matches direct abid."""
        rng = np.random.default_rng(21)
        for _ in range(200):
            k = int(rng.integers(2, 50))
            s = cosine_square_stats(_random_bundle(rng, k, int(rng.integers(1, 9))))
            reconstructed = k / ((k - 1) * s.mean_sq_cosine + 1.0)
            assert abs(reconstructed - abid(s).value) < 1e-12

    def test_reflection_equivalence(self):
        """Augmenting with reflections zeroes the mean and keeps E[C^2]."""
        rng = np.random.default_rng(22)
        for _ in range(50):
            k = int(rng.integers(2, 30))
            b = _random_bundle(rng, k, int(rng.integers(1, 6)))
            g = b.directions @ b.directions.T
            off = g[~np.eye(k, dtype=bool)]
            # The augmented multiset holds two positive and two negative
            # copies of every off-diagonal cosine (plus sign-symmetric
            # mirror pairs); summed blockwise the mean cancels exactly.
            total = off.sum() + off.sum() + (-off).sum() + (-off).sum()
            assert total == 0.0
            aug_second_moment = (2 * (off**2).sum() + 2 * ((-off) ** 2).sum()) / (4 * off.size)
            variance = aug_second_moment - (total / (4 * off.size)) ** 2
            s = cosine_square_stats(b)
            assert abs(variance - s.mean_sq_cosine) < 1e-12


class TestInvariances:
    def test_scale_invariance_power_of_two_is_bit_identical(self):
        rng = np.random.default_rng(31)
        data = DataMatrix(rng.standard_normal((120, 3)))
        base = [estimate_point(data, q, 15) for q in range(10)]
        for scale in (0.25, 2.0, 1024.0):
            scaled = DataMatrix(data.points * scale)
            for q in range(10):
                got = estimate_point(scaled, q, 15)
                assert got["abid"].value == base[q]["abid"].value
                assert got["rabid"].value == base[q]["rabid"].value

    def test_scale_invariance_general_constant(self):
        rng = np.random.default_rng(32)
        data = DataMatrix(rng.standard_normal((120, 3)))
        scaled = DataMatrix(data.points * math.pi)
        for q in range(10):
            a = estimate_point(data, q, 15)["abid"].value
            b = estimate_point(scaled, q, 15)["abid"].value
            assert b == pytest.approx(a, rel=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(33)
        data = DataMatrix(rng.standard_normal((150, 4)))
        q_mat = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        rotated = DataMatrix(data.points @ q_mat.T)
        for q in range(12):
            a = estimate_point(data, q, 20)
            b = estimate_point(rotated, q, 20)
            assert b["abid"].value == pytest.approx(a["abid"].value, abs=1e-9)
            assert b["rabid"].value == pytest.approx(a["rabid"].value, abs=1e-9)

    def test_rabid_converges_to_abid_with_k(self):
        """The relative gap between the raw and regularized estimates
        shrinks as the neighborhood grows (averaged over seeds/queries)."""
        ks = (25, 50, 100, 200, 400)
        gaps = []
        for k in ks:
            acc = []
            for seed in range(3):
                data = sample_ball(1200, 3, seed=seed)
                for q in range(12):
                    est = estimate_point(data, q, k)
                    acc.append(
                        abs(est["rabid"].value - est["abid"].value) / est["abid"].value
                    )
            gaps.append(float(np.mean(acc)))
        assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps


class TestEstimatePoint:
    def test_uniform_disc_interior(self):
        data = sample_ball(1500, 2, seed=4)
        est = estimate_point(data, np.zeros(2), 100)
        assert 1.6 <= est["abid"].value <= 2.4

    def test_collinear_data(self):
        t = np.linspace(0.0, 1.0, 40)
        data = DataMatrix(np.column_stack([t, 2 * t, -t]))
        est = estimate_point(data, 20, 10)
        assert est["abid"].value == pytest.approx(1.0, abs=0.05)

    def test_offset_disc_disagreement(self):
        data, query = offset_disc(200, h=20.0, seed=9)
        est = estimate_point(data, query, 200, estimators=("abid", "mle"))
        assert est["abid"].value < 1.5
        assert est["mle"].value > 5.0

    def test_unknown_tag_rejected(self):
        data = sample_ball(50, 2, seed=0)
        with pytest.raises(ValueError, match="unknown estimator"):
            estimate_point(data, 0, 5, estimators=("abid", "nope"))

    def test_small_k_warns(self):
        data = sample_ball(400, 10, seed=1)
        with pytest.warns(NeighborhoodSizeWarning):
            estimate_point(data, 0, 4)

    @pytest.mark.parametrize("query, point", [(7, 7), (np.int64(7), 7), ([0.1, 0.2], None)])
    @pytest.mark.parametrize("tags, k, need", [
        (("abid", "rabid"), 1, 2),
        (("mle",), 1, 2),
        (("abid", "ged"), 3, 4),
    ])
    def test_k_below_an_estimator_minimum_fails_before_the_search(
            self, no_search, query, point, tags, k, need):
        with pytest.raises(InsufficientNeighborsError) as exc:
            estimate_point(sample_ball(50, 2, seed=1), query, k, estimators=tags)
        assert (exc.value.required, exc.value.available, exc.value.point) == (need, k, point)
        if point is not None:
            assert f"for point {point}," in str(exc.value)

    @pytest.mark.parametrize("tags", [("ged",), ("abid",), ("rabid", "mle", "mom")])
    @pytest.mark.parametrize("pair, match", [
        ((5, 3), r"^ged_pair needs 1 <= k1 < k2, got \(5, 3\)$"),
        ((0, 3), r"^ged_pair needs 1 <= k1 < k2, got \(0, 3\)$"),
        ((2, 11), r"^ged_pair \(2, 11\) needs k >= 11, got k = 10$"),
    ])
    def test_a_bad_ged_pair_fails_before_the_search_whatever_the_estimators(
            self, no_search, tags, pair, match):
        with pytest.raises(ValueError, match=match):
            estimate_point(sample_ball(50, 2, seed=1), 7, 10, estimators=tags, ged_pair=pair)

    def test_bad_k_fails_before_the_search(self, no_search):
        for k in (0, 2.5, True):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                estimate_point(sample_ball(50, 2, seed=1), 7, k)


class TestEstimateTable:
    def test_shape_and_determinism_across_threads(self):
        data = sample_ball(80, 3, seed=2)
        t1 = estimate_table(data, 10, estimators=("abid", "mle"), threads=1)
        t4 = estimate_table(data, 10, estimators=("abid", "mle"), threads=4)
        assert t1.indices == tuple(range(80))
        assert np.array_equal(t1.values("abid"), t4.values("abid"))
        assert np.array_equal(t1.values("mle"), t4.values("mle"))

    def test_insufficient_neighbors_names_point(self):
        data = DataMatrix([[0.0], [0.0], [1.0]])
        with pytest.raises(InsufficientNeighborsError) as exc:
            estimate_table(data, 2, estimators=("abid",))
        assert exc.value.point == 0

    @pytest.mark.parametrize("kwargs, match", [
        ({"k": 0}, "k must be a positive integer, got 0"),
        ({"k": -3}, "k must be a positive integer, got -3"),
        ({"k": 2.5}, "k must be a positive integer, got 2.5"),
        ({"k": 5, "threads": 0}, "threads must be a positive integer, got 0"),
        ({"k": 5, "threads": -4}, "threads must be a positive integer, got -4"),
        ({"k": True}, "k must be a positive integer, got True"),
        ({"k": np.True_}, "k must be a positive integer, got np.True_"),
        ({"k": 5, "threads": True}, "threads must be a positive integer, got True"),
        ({"k": 5, "ged_pair": (5, 3)}, r"ged_pair needs 1 <= k1 < k2, got \(5, 3\)"),
        ({"k": 5, "ged_pair": (2, 8)}, r"ged_pair \(2, 8\) needs k >= 8, got k = 5"),
        ({"k": 5, "ged_pair": (2.5, 4)}, r"ged_pair must be two integers, got \(2.5, 4\)"),
        ({"k": 5, "ged_pair": (True, 4)}, r"ged_pair must be two integers, got \(True, 4\)"),
        ({"k": 5, "ged_pair": (1, 2, 3)}, r"ged_pair must be two integers, got \(1, 2, 3\)"),
        ({"k": 5, "ged_pair": 4}, "ged_pair must be two integers, got 4"),
    ])
    def test_bad_k_or_threads_fail_before_any_search(self, no_search, kwargs, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            estimate_table(sample_ball(50, 2, seed=1), estimators=("abid", "mle"), **kwargs)

    @pytest.mark.parametrize("queries", [[], (), np.array([], dtype=np.int64)])
    def test_empty_queries_fail_before_any_search(self, no_search, queries):
        with pytest.raises(ValueError,
                           match="^at least one query point is required; queries is empty$"):
            estimate_table(sample_ball(50, 2, seed=1), 5, queries=queries)

    def test_no_estimators_fail_before_any_search(self, no_search):
        data = sample_ball(50, 2, seed=1)
        with pytest.raises(ValueError, match="^at least one estimator tag is required$"):
            estimate_table(data, 5, estimators=())
        with pytest.raises(ValueError, match="^at least one estimator tag is required$"):
            estimate_point(data, 0, 5, estimators=())

    def test_query_subset_and_diagnostics(self):
        data = sample_ball(60, 2, seed=3)
        t = estimate_table(data, 8, queries=[5, 7], with_diagnostics=True)
        assert t.indices == (5, 7)
        assert t.mean_cosines is not None and len(t.mean_cosines) == 2
