import math

import numpy as np
import pytest

from angleid.angle_id import estimate_table
from angleid.baseline_id import ged, mle_hill, mom
from angleid.core import DEGENERATE_ZERO_DENOMINATOR, FLAG_BITS, DataMatrix, InsufficientNeighborsError
from angleid.neighbors import NeighborList, knn
from angleid.synth import sample_ball


def _nl(distances) -> NeighborList:
    d = np.asarray(distances, dtype=np.float64)
    return NeighborList(None, np.arange(d.size) + 1, d)


def _power_law(k, m) -> NeighborList:
    i = np.arange(1, k + 1)
    return _nl((i / k) ** (1.0 / m))


class TestMleHill:
    def test_hand_example(self):
        est = mle_hill(_nl([1.0, 1.0, 1.0, 2.0]))
        assert est.value == pytest.approx(1.0 / math.log(2.0), abs=1e-12)

    def test_power_law_recovers_exponent(self):
        est = mle_hill(_power_law(1000, 2.0))
        assert est.value == pytest.approx(2.0, abs=0.2)

    def test_all_equal_degenerates(self):
        est = mle_hill(_nl([0.5, 0.5, 0.5]))
        assert est.flags == {DEGENERATE_ZERO_DENOMINATOR}
        assert est.value == 3.0

    def test_requires_two(self):
        with pytest.raises(InsufficientNeighborsError):
            mle_hill(_nl([1.0]))


class TestMom:
    def test_hand_example(self):
        est = mom(_nl([0.25, 0.5, 0.75, 1.0]))
        assert est.value == pytest.approx(5.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
    def test_power_law_limit(self, m):
        est = mom(_power_law(1000, m))
        assert est.value == pytest.approx(m, rel=0.1)

    def test_all_equal_degenerates(self):
        est = mom(_nl([2.0, 2.0]))
        assert est.flags == {DEGENERATE_ZERO_DENOMINATOR}

    def test_requires_two(self):
        with pytest.raises(InsufficientNeighborsError):
            mom(_nl([1.0]))


class TestAllDistancesEqual:
    """k equal distances give an infinite estimate: k, flagged, whatever the value.

    The rounded mean of equal non-dyadic distances need not equal them
    (three times 0.1 averages to 0.10000000000000002), so a w == m test
    misses them and m / (w - m) is a huge rounding artifact.
    """

    @pytest.mark.parametrize("value, k", [(0.1, 3), (0.3, 10), (0.7, 7), (1.1, 50), (2.0 / 3.0, 4)])
    def test_equal_non_dyadic_distances_degenerate(self, value, k):
        for fn in (mom, mle_hill):
            est = fn(_nl([value] * k))
            assert est.flags == {DEGENERATE_ZERO_DENOMINATOR}
            assert est.value == k

    def test_a_table_of_equidistant_neighborhoods_degenerates(self):
        # Each query is the center of a cross with its k = 6 neighbors at
        # one non-dyadic distance along axes 1-3; the crosses lie 10 apart
        # along axis 0, so every difference and distance is exact.
        points = []
        for c, s in enumerate((0.1, 0.3, 0.7, 1.1)):
            center = np.array([10.0 * c, 0.0, 0.0, 0.0])
            points += [center] + [center + sign * s * np.eye(4)[i] for i in (1, 2, 3) for sign in (1, -1)]
        queries = range(0, 28, 7)
        table = estimate_table(DataMatrix(np.array(points)), 6, ("mle", "mom", "ged"), queries=queries)
        for tag in ("mle", "mom", "ged"):
            assert table.values(tag).tolist() == [6.0] * 4, tag
            assert table.flags(tag).tolist() == [FLAG_BITS[DEGENERATE_ZERO_DENOMINATOR]] * 4, tag


class TestGed:
    def test_doubling_count_with_doubling_radius(self):
        # 5 neighbors within 0.5 and all 10 within 1.0: ln2/ln2 = 1.
        est = ged(_nl([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]))
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_quadrupling_count_with_explicit_pair(self):
        # 5 within 0.5 and 20 within 1.0 asks for the (5, 20) pair.
        d = np.concatenate([np.linspace(0.1, 0.5, 5), np.linspace(0.6, 1.0, 15)])
        est = ged(_nl(d), pair=(5, 20))
        assert est.value == pytest.approx(math.log(4) / math.log(2), abs=1e-12)

    def test_equal_radii_degenerate(self):
        est = ged(_nl([1.0, 2.0, 2.0, 2.0]))
        assert est.flags == {DEGENERATE_ZERO_DENOMINATOR}
        assert est.value == 4.0

    def test_requires_four(self):
        with pytest.raises(InsufficientNeighborsError):
            ged(_nl([1.0, 2.0, 3.0]))

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            ged(_nl([1.0, 2.0, 3.0, 4.0]), pair=(3, 3))
        with pytest.raises(ValueError):
            ged(_nl([1.0, 2.0, 3.0, 4.0]), pair=(1, 9))

    def test_uniform_ball_monte_carlo(self):
        """Averaged over 100 interior queries of a 3-ball, ged is near 3."""
        data = sample_ball(4000, 3, seed=13)
        values = []
        for q in range(100):
            values.append(ged(knn(data, q, 200)).value)
        assert float(np.mean(values)) == pytest.approx(3.0, abs=0.5)


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [0.5, 2.0, 64.0])
    def test_power_of_two_scaling_is_bit_identical(self, scale):
        d = np.array([0.3, 0.7, 1.1, 1.9, 2.4])
        for fn in (mle_hill, mom, ged):
            assert fn(_nl(d * scale)).value == fn(_nl(d)).value

    def test_general_scaling_matches_closely(self):
        d = np.array([0.3, 0.7, 1.1, 1.9, 2.4])
        for fn in (mle_hill, mom, ged):
            assert fn(_nl(d * math.pi)).value == pytest.approx(fn(_nl(d)).value, rel=1e-12)
