import math

import numpy as np
import pytest

from angleid import theory
from angleid.synth import sample_ball, sample_sphere


def _simpson(f, a, b, n=20_000):
    """Independent quadrature oracle (composite Simpson, n even)."""
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=np.float64)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def _pair_cosines(points):
    unit = points / np.linalg.norm(points, axis=1, keepdims=True)
    return np.einsum("ij,ij->i", unit[0::2], unit[1::2])


class TestAnglePdf:
    def test_circle_is_uniform(self):
        for t in (0.0, 1.0, math.pi):
            assert theory.angle_pdf(t, 2) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_d3_closed_form(self):
        assert theory.angle_pdf(math.pi / 2, 3) == pytest.approx(0.5, abs=1e-12)
        assert theory.angle_pdf(1.0, 3) == pytest.approx(math.sin(1.0) / 2, abs=1e-12)

    @pytest.mark.parametrize("d", list(range(2, 21)))
    def test_integrates_to_one(self, d):
        total = _simpson(lambda t: theory.angle_pdf(t, d), 0.0, math.pi)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theory.angle_pdf(-0.1, 3)
        with pytest.raises(ValueError):
            theory.angle_pdf(math.pi + 0.1, 3)
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            theory.angle_pdf([1.0, math.nan], 3)
        with pytest.raises(ValueError):
            theory.angle_pdf(1.0, 1)


class TestCosinePdf:
    def test_d3_is_uniform(self):
        for c in (-1.0, -0.3, 0.0, 0.9, 1.0):
            assert theory.cosine_pdf(c, 3) == pytest.approx(0.5, abs=1e-12)

    def test_d2_arcsine_law(self):
        assert theory.cosine_pdf(0.0, 2) == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert theory.cosine_pdf(1.0, 2) == math.inf

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(0)
        c = rng.uniform(-1, 1, 200)
        for d in (2, 3, 4, 7, 12):
            assert np.array_equal(theory.cosine_pdf(c, d), theory.cosine_pdf(-c, d))

    def test_change_of_variables_vs_angle_pdf(self):
        """cosine_pdf(cos t) * |sin t| equals angle_pdf(t)."""
        rng = np.random.default_rng(1)
        thetas = rng.uniform(0.05, math.pi - 0.05, 100)
        for d in (2, 3, 5, 10):
            lhs = theory.cosine_pdf(np.cos(thetas), d) * np.abs(np.sin(thetas))
            rhs = theory.angle_pdf(thetas, d)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("d", [3, 4, 5, 8, 12, 20])
    def test_integrates_to_one(self, d):
        # Even d have sqrt-type endpoint behavior that slows Simpson down,
        # hence the fine grid.
        total = _simpson(lambda c: theory.cosine_pdf(c, d), -1.0, 1.0, n=400_000)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            theory.cosine_pdf(1.5, 3)
        with pytest.raises(ValueError, match=r"cosine values must lie in \[-1, 1\]"):
            theory.cosine_pdf([0.0, math.nan], 3)


class TestCosineCdf:
    def test_symmetry_point(self):
        for d in (2, 3, 5, 17):
            assert theory.cosine_cdf(0.0, d) == 0.5

    def test_endpoints(self):
        for d in (2, 3, 9):
            assert theory.cosine_cdf(-1.0, d) == 0.0
            assert theory.cosine_cdf(1.0, d) == 1.0

    @pytest.mark.parametrize("c", [1.5, -1.0 - 1e-15, math.nan, [0.0, math.nan], math.inf])
    def test_domain_error_before_any_iteration(self, monkeypatch, c):
        monkeypatch.setattr(theory, "_beta_cont_frac", lambda a, x: pytest.fail("iterated"))
        with pytest.raises(ValueError, match=r"cosine values must lie in \[-1, 1\]"):
            theory.cosine_cdf(c, 3)

    def test_d3_uniform(self):
        assert theory.cosine_cdf(0.5, 3) == pytest.approx(0.75, abs=1e-12)
        assert theory.cosine_cdf(-0.2, 3) == pytest.approx(0.4, abs=1e-12)

    def test_reflection_identity(self):
        grid = np.linspace(-0.95, 0.95, 39)
        for d in (2, 4, 9):
            f = theory.cosine_cdf(grid, d)
            g = theory.cosine_cdf(-grid, d)
            assert np.max(np.abs((f + g) - 1.0)) < 1e-12

    @pytest.mark.parametrize("d", [3, 5, 10, 15])
    def test_matches_pdf_quadrature(self, d):
        for c in np.linspace(-0.9, 0.9, 13):
            expected = _simpson(lambda u: theory.cosine_pdf(u, d), -1.0, float(c))
            assert theory.cosine_cdf(float(c), d) == pytest.approx(expected, abs=1e-8)

    def test_d2_matches_angle_space_quadrature(self):
        # The d=2 density is singular at the endpoints, so integrate the
        # smooth angle-space density instead: P(C <= c) = P(theta >= arccos c).
        for c in np.linspace(-0.9, 0.9, 13):
            expected = _simpson(lambda t: theory.angle_pdf(t, 2), math.acos(float(c)), math.pi)
            assert theory.cosine_cdf(float(c), 2) == pytest.approx(expected, abs=1e-8)


class TestCosineMoments:
    def test_one_dimensional(self):
        assert theory.cosine_moments(1) == (0.0, 1.0)

    def test_d5(self):
        assert theory.cosine_moments(5) == (0.0, 0.2)

    @pytest.mark.parametrize("d", [True, np.bool_(True), 2.0, "3"])
    def test_dimension_must_be_an_integer_and_not_a_bool(self, d):
        with pytest.raises(ValueError, match="^d must be a positive integer, got "):
            theory.cosine_moments(d)
        with pytest.raises(ValueError, match="^d must be an integer >= 2, got "):
            theory.cosine_cdf(0.0, d)

    @pytest.mark.parametrize("d", [2, 5])
    def test_monte_carlo_ball_pairs(self, d):
        """Empirical variance of ball-pair cosines matches 1/d within 3 SE."""
        cos = _pair_cosines(sample_ball(100_000, d, seed=d).points)
        sq = cos**2
        se = float(sq.std()) / math.sqrt(sq.size)
        assert abs(float(sq.mean()) - 1.0 / d) < 3.0 * se


class TestLegendreIdentity:
    @pytest.mark.parametrize("x", [0.5, 1.0])
    def test_closed_form_points(self, x):
        assert theory.legendre_identity_residual(x) < 1e-12

    def test_grid(self):
        for x in np.arange(0.5, 20.0 + 0.25, 0.5):
            assert theory.legendre_identity_residual(float(x)) < 1e-10

    def test_positive_domain(self):
        with pytest.raises(ValueError):
            theory.legendre_identity_residual(0.0)

    def test_gamma_range_error(self):
        with pytest.raises(OverflowError):
            theory.legendre_identity_residual(200.0)
        with pytest.raises(OverflowError):
            theory.legendre_identity_residual(math.inf)


class TestSampleCosines:
    def test_d3_ks_against_uniform(self):
        c = theory.sample_cosines(3, 10_000, seed=5)
        stat = theory.ks_statistic(c, lambda x: (1.0 + x) / 2.0)
        assert stat < theory.KS_CRITICAL_1PCT / math.sqrt(10_000)

    def test_d1_is_rademacher(self):
        c = theory.sample_cosines(1, 10_000, seed=6)
        assert set(np.unique(c)) == {-1.0, 1.0}
        assert abs(float(c.mean())) < 3.0 / math.sqrt(10_000)

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_second_moment(self, d):
        c = theory.sample_cosines(d, 100_000, seed=d + 10)
        sq = c**2
        se = float(sq.std()) / math.sqrt(sq.size)
        assert abs(float(sq.mean()) - 1.0 / d) < 3.0 * se

    def test_reproducible(self):
        assert np.array_equal(
            theory.sample_cosines(4, 1000, seed=9), theory.sample_cosines(4, 1000, seed=9)
        )

    @pytest.mark.parametrize("n", [2.5, True, np.bool_(True), 0], ids=repr)
    def test_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            theory.sample_cosines(3, n, seed=0)

    def test_sphere_pairs_pass_ks(self):
        """Dot products of uniform sphere pairs follow the closed-form cdf."""
        cos = _pair_cosines(sample_sphere(20_000, 3, seed=14).points)
        stat = theory.ks_statistic(cos, lambda x: theory.cosine_cdf(x, 3))
        assert stat < theory.KS_CRITICAL_1PCT / math.sqrt(10_000)


class TestKsStatistic:
    def test_small_case_by_hand(self):
        stat = theory.ks_statistic([0.25, 0.75], lambda x: np.asarray(x))
        assert stat == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_refused(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            theory.ks_statistic([0.1, bad], lambda x: np.clip(x, 0.0, 1.0))

    def test_detects_wrong_cdf(self):
        c = theory.sample_cosines(2, 2000, seed=3)
        stat = theory.ks_statistic(c, lambda x: theory.cosine_cdf(x, 10))
        assert stat > theory.KS_CRITICAL_1PCT / math.sqrt(2000)
