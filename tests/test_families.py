"""Unit tests for the conjugate component families."""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from mixexact import families
from mixexact.families import (
    DirichletMultinomial,
    GroupStat,
    NormalInverseGamma,
    PoissonGamma,
    beta_logpdf,
    beta_ppf,
    gamma_isf,
    gamma_logpdf,
    gamma_ppf,
    infer_family,
    observe,
    student_t_logpdf,
)


class TestGroupStat:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            GroupStat(-1, (0,))

    def test_empty_group_must_be_zero(self):
        with pytest.raises(ValueError):
            GroupStat(0, (3,))


class TestPoissonGamma:
    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.inf, 1.0)])
    def test_invalid_hyperparameters(self, shape, rate):
        with pytest.raises(ValueError):
            PoissonGamma(shape, rate)

    def test_update_adds_sum_to_shape_and_count_to_rate(self):
        post = PoissonGamma(1.0, 1.0).updated(GroupStat(2, (3,)))
        assert post == PoissonGamma(4.0, 3.0)

    def test_empty_update_is_identity(self):
        prior = PoissonGamma(1.5, 2.5)
        assert prior.updated(GroupStat(0, (0,))) is prior

    def test_log_partition_closed_form(self):
        # Gamma(3, 2): Gamma(3) / 2^3 = 2/8 = 1/4
        assert PoissonGamma(3.0, 2.0).log_partition() == pytest.approx(
            math.log(0.25), abs=1e-14
        )
        assert PoissonGamma(1.0, 1.0).log_partition() == 0.0

    def test_posterior_mean(self):
        assert PoissonGamma(7.0, 3.0).posterior_mean() == (7.0 / 3.0,)

    def test_density_at_zero_for_unit_exponential(self):
        # Gamma(1,1) density at 0 is exactly 1
        assert np.exp(gamma_logpdf(0.0, 1.0, 1.0)) == 1.0

    def test_density_matches_scipy(self):
        for t in (0.1, 0.5, 1.0, 2.5):
            assert np.exp(gamma_logpdf(t, 4.0, 3.0)) == pytest.approx(
                stats.gamma.pdf(t, 4.0, scale=1.0 / 3.0), rel=1e-14
            )

    def test_density_outside_support_is_zero(self):
        assert np.exp(gamma_logpdf(-0.5, 2.0, 1.0)) == 0.0


class TestDirichletMultinomial:
    def test_needs_two_categories(self):
        with pytest.raises(ValueError):
            DirichletMultinomial((1.0,))

    def test_positive_concentration_required(self):
        with pytest.raises(ValueError):
            DirichletMultinomial((1.0, 0.0))

    def test_update_adds_counts_per_category(self):
        post = DirichletMultinomial((0.5, 0.5, 0.5)).updated(GroupStat(2, (3, 1, 2)))
        assert post == DirichletMultinomial((3.5, 1.5, 2.5))

    def test_update_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            DirichletMultinomial((1.0, 1.0)).updated(GroupStat(1, (1, 0, 0)))

    def test_log_partition_closed_form(self):
        conc = (2.0, 3.0, 1.5)
        expected = sum(gammaln(b) for b in conc) - gammaln(sum(conc))
        assert DirichletMultinomial(conc).log_partition() == pytest.approx(
            float(expected), abs=1e-14
        )

    def test_posterior_mean_sums_to_one(self):
        mean = DirichletMultinomial((2.0, 1.0, 5.0)).posterior_mean()
        assert mean == pytest.approx((0.25, 0.125, 0.625), abs=1e-15)

    def test_category_marginal_is_uniform_for_flat_pair(self):
        # two categories, concentration (1,1): coordinate marginal is Beta(1,1)
        for t in (0.1, 0.5, 0.9):
            assert np.exp(beta_logpdf(t, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_density_outside_unit_interval_is_zero(self):
        # the coordinates of Dirichlet(2, 3): Beta(2, 3) and Beta(3, 2)
        assert np.exp(beta_logpdf(1.5, 2.0, 3.0)) == 0.0
        assert np.exp(beta_logpdf(-0.2, 3.0, 2.0)) == 0.0


class TestNormalInverseGamma:
    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            NormalInverseGamma(math.nan, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            NormalInverseGamma(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            NormalInverseGamma(0.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            NormalInverseGamma(0.0, 1.0, 1.0, 0.0)

    def test_update_matches_hand_computation(self):
        # prior (location 0, precision scale 2, shape 3, scale 4); group
        # {1, 2, 3}: n=3, T1=6, T2=14, xbar=2
        #   c'  = 2 + 3 = 5
        #   xi' = (2*0 + 6) / 5 = 1.2
        #   a'  = 3 + 3 = 6
        #   ss  = 14 - 36/3 = 2;  shift = 2*3/5 * (2-0)^2 = 4.8
        #   b'  = 4 + 2 + 4.8 = 10.8
        prior = NormalInverseGamma(0.0, 2.0, 3.0, 4.0)
        post = prior.updated(GroupStat(3, (6.0, 14.0)))
        assert post.location == pytest.approx(1.2, abs=1e-15)
        assert post.precision_scale == 5.0
        assert post.shape == 6.0
        assert post.scale == pytest.approx(10.8, abs=1e-12)

    def test_empty_update_is_identity(self):
        prior = NormalInverseGamma(1.0, 2.0, 3.0, 4.0)
        assert prior.updated(GroupStat(0, (0, 0))) is prior

    def test_update_never_produces_negative_scale(self):
        # single observation: T2 - T1^2/n cancels to 0 exactly up to float
        # noise; the clamp keeps the scale valid
        x = 0.1 + 0.2  # 0.30000000000000004
        post = NormalInverseGamma(0.0, 1.0, 1.0, 1.0).updated(GroupStat(1, (x, x * x)))
        assert post.scale >= 1.0

    def test_single_observation_update(self):
        # n=1 at x: c'=c+1, xi'=(c xi + x)/(c+1), a'=a+1,
        # b' = b + c/(c+1) (x - xi)^2
        c, xi, a, b, x = 2.0, 1.0, 3.0, 4.0, 2.5
        post = NormalInverseGamma(xi, c, a, b).updated(GroupStat(1, (x, x * x)))
        assert post.location == pytest.approx((c * xi + x) / (c + 1), abs=1e-15)
        assert post.scale == pytest.approx(b + c / (c + 1) * (x - xi) ** 2, abs=1e-12)

    def test_log_partition_matches_direct_formula(self):
        nig = NormalInverseGamma(0.5, 2.0, 3.0, 4.0)
        expected = (
            0.5 * math.log(2 * math.pi)
            - 0.5 * math.log(2.0)
            + float(gammaln(1.5))
            - 1.5 * math.log(2.0)
        )
        assert nig.log_partition() == pytest.approx(expected, abs=1e-14)

    def test_location_marginal_is_student_t(self):
        # NIG(location 1, precision scale 2, shape 5, scale 3): df 5, scale sqrt(3 / (5 * 2))
        scale = math.sqrt(3.0 / (5.0 * 2.0))
        for t in (-1.0, 0.5, 1.0, 2.0):
            assert np.exp(student_t_logpdf(t, 5.0, 1.0, scale)) == pytest.approx(
                stats.t.pdf(t, 5.0, loc=1.0, scale=scale), rel=1e-14
            )


def assert_same(ours, reference):
    """Equal within 1e-12 relative, with infinities of the same sign in place."""
    np.testing.assert_allclose(ours, reference, rtol=1e-12, atol=0.0)


# shapes below, at and above 1 decide the density at the support edge
EDGE_SHAPES = [0.5, 1.0, 2.5]
QUANTILE_LEVELS = np.array([0.0, 1e-8, 0.05, 0.5, 0.95, 1.0 - 1e-8, 1.0])


class TestClosedForms:
    """The scipy.special closed forms against scipy.stats as a reference."""

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    @pytest.mark.parametrize("rate", [0.7, 3.0])
    def test_gamma(self, shape, rate):
        t = np.array([-1.0, 0.0, 0.3, 1.7, 25.0])
        ref = stats.gamma(shape, scale=1.0 / rate)
        assert_same(gamma_logpdf(t, shape, rate), ref.logpdf(t))
        assert_same(gamma_ppf(QUANTILE_LEVELS, shape, rate), ref.ppf(QUANTILE_LEVELS))

    @pytest.mark.parametrize("a", EDGE_SHAPES)
    @pytest.mark.parametrize("b", EDGE_SHAPES)
    def test_beta(self, a, b):
        t = np.array([-0.2, 0.0, 0.15, 0.6, 0.97, 1.0, 1.4])
        for p, q in ((a, b), (b, a)):
            ref = stats.beta(p, q)
            assert_same(beta_logpdf(t, p, q), ref.logpdf(t))
            assert_same(beta_ppf(QUANTILE_LEVELS, p, q), ref.ppf(QUANTILE_LEVELS))

    @pytest.mark.parametrize("shape", [0.5, 1.0, 3.0, 41.0])
    def test_student_t_location(self, shape):
        # the location marginal of NIG(0.4, 2, shape, 1.5)
        scale = math.sqrt(1.5 / (shape * 2.0))
        ref = stats.t(shape, loc=0.4, scale=scale)
        t = np.array([-30.0, -1.0, 0.4, 0.9, 7.0])
        assert_same(student_t_logpdf(t, shape, 0.4, scale), ref.logpdf(t))

    @pytest.mark.parametrize("shape,rate", [(1.0, 1.0), (0.5, 2.0), (7.5, 3.0), (40.0, 0.25)])
    def test_quadrature_upper_bounds(self, shape, rate):
        # the Poisson bound of quadrature_evidence: Gamma(shape, rate)
        assert_same(gamma_isf(1e-16, shape, rate), stats.gamma.isf(1e-16, shape, scale=1.0 / rate))
        # the normal precision bound: Gamma(a / 2, rate b / 2) for NIG shape a, scale b
        a, b = 2.0 * shape, 1.0 / rate
        assert_same(
            gamma_isf(1e-16, 0.5 * a, 0.5 * b), stats.gamma.isf(1e-16, 0.5 * a, scale=2.0 / b)
        )


def assert_same_bits(ours, reference):
    ours, reference = np.asarray(ours, dtype=float), np.asarray(reference, dtype=float)
    assert ours.shape == reference.shape
    mismatch = np.flatnonzero(ours.view(np.int64) != reference.view(np.int64))
    assert mismatch.size == 0, (reference.ravel()[mismatch[:5]], ours.ravel()[mismatch[:5]])


# Cephes' branch points (2, 3, 13, 1000, 1e8 and the overflow threshold)
# with their neighbours, tiny arguments on both sides of 1/x overflowing,
# zero and the non-finite values
LGAM_EDGES = [
    5e-324, 1e-310, 2.0**-1022, 1e-300, 2.0, 3.0, 13.0, math.nextafter(13.0, 0.0),
    1000.0, math.nextafter(1000.0, 0.0), 1e8, math.nextafter(1e8, math.inf),
    2.556348e305, 2.6e305, sys.float_info.max, math.inf, math.nan, 0.0,
]


class TestLogGamma:
    """The in-package log Gamma returns scipy.special.gammaln's bits."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(17).integers(0, np.float64(math.inf).view(np.int64), 100_000)
        x = bits.view(np.float64)
        assert_same_bits(families.gammaln(x), gammaln(x))

    def test_integers_and_fractions(self):
        x = np.arange(10_000.0)[:, None] + [0.0, 0.5, 1.0 / 3.0, 1.0, 2.7]
        assert_same_bits(families.gammaln(x), gammaln(x))

    def test_edges_as_scalars_and_as_an_array(self):
        for x in LGAM_EDGES:
            ours = families.gammaln(x)
            assert type(ours) is float
            assert_same_bits(ours, gammaln(x))
            assert_same_bits(families.gammaln(np.float64(x)), gammaln(x))
        assert_same_bits(families.gammaln(np.array(LGAM_EDGES)), gammaln(LGAM_EDGES))

    def test_shapes_are_kept(self):
        assert type(families.gammaln(7)) is float
        assert type(families.gammaln(np.array(2.5))) is float
        assert families.gammaln(np.empty((0, 3))).shape == (0, 3)
        x = np.array([[[0.5, 4.0, 0.5]], [[20.0, 4.0, 3000.0]]])
        assert families.gammaln(x).shape == x.shape
        assert_same_bits(families.gammaln(x), gammaln(x))

    @pytest.mark.parametrize("x", [-0.5, -3.0, -math.inf, np.array([1.0, -2.0])])
    def test_negative_arguments_refused(self, x):
        with pytest.raises(ValueError):
            families.gammaln(x)


class TestFsum:
    def test_correctly_rounded_whatever_the_order(self):
        terms = [1e16, 1.0, -1e16, 2.0**-60, 3.0]
        for order in itertools.permutations(terms):
            assert families.fsum(order) == 4.0
        assert families.fsum(iter(terms)) == 4.0
        assert families.fsum([]) == 0.0

    def test_where_math_fsum_raises_the_sum_runs_in_sequence(self):
        # math.fsum raises OverflowError on the first two and ValueError on
        # the last
        assert families.fsum([1e308, 1e308]) == math.inf
        assert families.fsum(x for x in (-1e308, -1e308, 1.0)) == -math.inf
        assert families.fsum([math.inf, 1.0]) == math.inf
        assert math.isnan(families.fsum([math.inf, -math.inf]))


class TestObservations:
    def test_poisson_accepts_nonnegative_ints(self):
        observe("poisson", 0)
        observe("poisson", 7)

    @pytest.mark.parametrize("bad", [-1, 1.5, "2", True, (1,)])
    def test_poisson_rejects(self, bad):
        with pytest.raises(ValueError):
            observe("poisson", bad)

    def test_multinomial_accepts_count_tuples(self):
        observe("multinomial", (3, 1, 0))
        observe("multinomial", (0, 1), categories=2)

    @pytest.mark.parametrize("bad", [(1,), (1, -1), (0, 0), (1.5, 2), 3])
    def test_multinomial_rejects(self, bad):
        with pytest.raises(ValueError):
            observe("multinomial", bad)

    def test_multinomial_category_count_enforced(self):
        with pytest.raises(ValueError):
            observe("multinomial", (1, 2), categories=3)

    def test_normal_accepts_reals(self):
        observe("normal", -0.5)
        observe("normal", 3)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, "x", True])
    def test_normal_rejects(self, bad):
        with pytest.raises(ValueError):
            observe("normal", bad)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            observe("beta", 1)

    @pytest.mark.parametrize(
        "obs,family",
        [(np.int64(3), "poisson"), (np.uint8(0), "poisson"), (np.float32(0.5), "normal"),
         (np.float64(-1.5), "normal")],
    )
    def test_infers_numpy_scalars(self, obs, family):
        assert infer_family(obs) == family

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "1", None])
    def test_infer_rejects(self, bad):
        with pytest.raises(ValueError):
            infer_family(bad)

    def test_observation_statistics(self):
        assert observe("poisson", 3)[0] == (3,)
        assert observe("multinomial", (2, 0, 1))[0] == (2, 0, 1)
        # normal aggregates (x, x^2)
        assert observe("normal", 1.5)[0] == (1.5, 2.25)

    def test_multinomial_log_base_ignores_the_category_order(self):
        # log d! - sum log x_u! is one correctly rounded sum of the categories'
        # terms, so no order of the counts rounds it apart
        logs = {observe("multinomial", p)[1].hex() for p in itertools.permutations((3, 9, 8, 2))}
        assert len(logs) == 1

    def test_log_base_measure(self):
        # Poisson h(x) = 1/x!
        assert observe("poisson", 4)[1] == pytest.approx(-math.log(24), abs=1e-12)
        assert observe("poisson", 0)[1] == 0.0
        # multinomial h(x) = d! / prod x_u!
        assert observe("multinomial", (2, 1, 1))[1] == pytest.approx(math.log(12), abs=1e-12)
        # normal h(x) = (2 pi)^(-1/2)
        assert observe("normal", 0.7)[1] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-15)

    @pytest.mark.parametrize(
        "family,obs",
        [("poisson", np.uint8(255)), ("poisson", np.int8(127)), ("poisson", np.int64(2**63 - 1)),
         ("multinomial", (np.uint8(128), np.uint8(128))), ("multinomial", (np.int8(100), np.int8(100)))],
        ids=["uint8", "int8", "int64", "uint8-row", "int8-row"],
    )
    def test_numpy_integers_read_as_python_ints(self, family, obs):
        # a NumPy count would wrap in x + 1 or in the row total
        python = int(obs) if family == "poisson" else tuple(int(c) for c in obs)
        stat, log_h = observe(family, obs)
        assert stat == observe(family, python)[0]
        assert all(type(v) is int for v in stat)
        assert log_h == observe(family, python)[1] and math.isfinite(log_h)
