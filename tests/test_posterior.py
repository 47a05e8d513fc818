"""Unit tests for weights, moments, evidence, and density grids.

Reference numbers were produced by an exact rational-arithmetic evaluation
of the defining sums (Fraction-based, no floats) and are trusted to all
printed digits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import mixexact
from mixexact import posterior
from mixexact.errors import MixtureError, NumericalError
from mixexact.families import DirichletMultinomial, GroupStat, PoissonGamma
from mixexact.lattice import StatLattice, build, load, log_multiplicities
from mixexact.oracle import log_unnormalized_weight, oracle_posterior
from mixexact.posterior import (
    DensityGrid,
    MixturePrior,
    PosteriorSummary,
    bayes_factor,
    expected_component_means,
    expected_weights,
    log_evidence,
    marginal_component_density,
    marginal_weight_density,
    mass_concentration,
    normalize,
    summarize,
)

WORKED_DATA = [0, 0, 0, 1, 2, 2, 4]

# the n=0 lattice: one all-zero key, multiplicity 1
PRIOR_ONLY = "family=poisson k=2 n=0 logh=0x0.0p+0\n0\t0\t0\t0\t1\n"


def asym_prior() -> MixturePrior:
    return MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0), PoissonGamma(1.0, 10.0)))


def sym_prior(k: int = 2) -> MixturePrior:
    return MixturePrior((1.0,) * k, tuple(PoissonGamma(1.0, 1.0) for _ in range(k)))


class TestMixturePrior:
    def test_alpha_length_must_match(self):
        with pytest.raises(ValueError):
            MixturePrior((1.0,), (PoissonGamma(1, 1), PoissonGamma(1, 1)))

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            MixturePrior((1.0, 0.0), (PoissonGamma(1, 1), PoissonGamma(1, 1)))

    def test_families_must_agree(self):
        with pytest.raises(ValueError):
            MixturePrior((1.0, 1.0), (PoissonGamma(1, 1), DirichletMultinomial((1, 1))))

    def test_category_counts_must_agree(self):
        with pytest.raises(ValueError):
            MixturePrior(
                (1.0, 1.0),
                (DirichletMultinomial((1, 1)), DirichletMultinomial((1, 1, 1))),
            )

    def test_needs_a_component(self):
        with pytest.raises(ValueError):
            MixturePrior((), ())

    def test_dirichlet_constant_ignores_the_component_order(self):
        # log Gamma(sum alpha) - sum log Gamma(alpha_j), both sums correctly rounded
        constants = {
            MixturePrior(alpha, (PoissonGamma(1, 1),) * 3).log_dirichlet_constant().hex()
            for alpha in itertools.permutations((0.1, 0.45, 1.7))
        }
        assert len(constants) == 1


class TestTwoPointReference:
    """Dataset (0, 1), k=2, Gamma(1,1) and Gamma(1,10), alpha=(1,1)."""

    def fit(self):
        return normalize(build([0, 1], 2), asym_prior())

    def test_weights(self):
        wp = self.fit()
        assert wp.keys == ((0, 0, 2, 1), (1, 0, 1, 1), (1, 1, 1, 0), (2, 1, 0, 0))
        expected = [
            0.22056142909223478,
            0.06562158220925994,
            0.36091870215092964,
            0.35289828654757566,
        ]
        assert wp.weights == pytest.approx(expected, rel=1e-13)

    def test_evidence(self):
        # exact value 2743/26136
        wp = self.fit()
        assert math.exp(wp.log_evidence) == pytest.approx(2743 / 26136, rel=1e-13)

    def test_expected_weights(self):
        assert expected_weights(self.fit()) == pytest.approx(
            [0.5330842143638352, 0.46691578563616476], rel=1e-13
        )

    def test_expected_means(self):
        assert expected_component_means(self.fit()) == pytest.approx(
            [0.8495564467128448, 0.11679205470674665], rel=1e-13
        )

    def test_component_marginal_values(self):
        wp = self.fit()
        g1 = marginal_component_density(wp, 0, grid=[0.5, 1.0, 2.0])
        assert g1.param == "lambda1"
        assert g1.density == pytest.approx(
            [0.80194820236014531, 0.45240992530503832, 0.10088265194425969], rel=1e-13
        )
        g2 = marginal_component_density(wp, 1, grid=[0.05, 0.2])
        assert g2.density == pytest.approx(
            [5.531579311480759, 1.6697120350846798], rel=1e-13
        )

    def test_weight_marginal_values(self):
        g = marginal_weight_density(self.fit(), 0, grid=[0.3, 0.5])
        assert g.param == "p1"
        assert g.density == pytest.approx(
            [0.95694859642726941, 1.06990521327014218], rel=1e-13
        )


class TestWorkedExample:
    """Dataset (0,0,0,1,2,2,4), k=2, Gamma(1,1) and Gamma(1,10), alpha=(1,1)."""

    def fit(self):
        return normalize(build(WORKED_DATA, 2), asym_prior())

    def test_evidence(self):
        assert math.exp(self.fit().log_evidence) == pytest.approx(
            3.76384520427329e-06, rel=1e-12
        )

    def test_moments(self):
        wp = self.fit()
        assert expected_weights(wp)[0] == pytest.approx(0.6485753850390694, rel=1e-12)
        assert expected_component_means(wp) == pytest.approx(
            [1.7275034247326162, 0.10289790365635344], rel=1e-12
        )

    def test_mass_concentration(self):
        assert mass_concentration(self.fit(), 0.99) == 14

    def test_summary_document(self):
        text = summarize(self.fit()).to_text()
        lines = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert lines["family"] == "poisson"
        assert lines["k"] == "2"
        assert lines["n"] == "7"
        assert lines["distinct"] == "42"
        assert lines["mass99"] == "14"
        assert float(lines["E_p1"]) == pytest.approx(0.6485753850390694, rel=1e-12)
        assert float(lines["E_lambda2"]) == pytest.approx(0.10289790365635344, rel=1e-12)


class TestEvidence:
    @pytest.mark.parametrize("x", range(11))
    def test_single_count_negative_binomial(self, x):
        # k=1, Gamma(1,1): m(x) = 2^-(x+1)
        lat = build([x], 1)
        prior = MixturePrior((1.0,), (PoissonGamma(1.0, 1.0),))
        assert math.exp(log_evidence(lat, prior)) == pytest.approx(
            2.0 ** (-(x + 1)), rel=1e-13
        )

    def test_three_point_dataset(self):
        # exact value 1865/373248 for (0,1,3), symmetric Gamma(1,1), k=2
        lat = build([0, 1, 3], 2)
        m = math.exp(log_evidence(lat, sym_prior()))
        assert m == pytest.approx(1865 / 373248, rel=1e-13)

    def test_bayes_factor_against_single_component(self):
        log_m2 = log_evidence(build([0, 1, 3], 2), sym_prior())
        log_m1 = log_evidence(build([0, 1, 3], 1), sym_prior(1))
        assert math.exp(log_m1) == pytest.approx(1 / 256, rel=1e-13)
        assert bayes_factor(log_m2, log_m1) == pytest.approx(1.2791495198902607, rel=1e-12)

    def test_bayes_factor_basics(self):
        assert bayes_factor(-3.0, -3.0) == 1.0
        assert bayes_factor(math.log(2), 0.0) == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(NumericalError, match=r"exp\(1000\.0\) overflows"):
            bayes_factor(1000.0, 0.0)
        with pytest.raises(NumericalError, match="non-finite log evidence: log_m_a = nan"):
            bayes_factor(math.nan, 0.0)
        with pytest.raises(NumericalError, match="non-finite log evidence: log_m_a = inf"):
            bayes_factor(math.inf, 0.0)
        with pytest.raises(NumericalError, match="non-finite log evidence: log_m_b = -inf"):
            bayes_factor(0.0, -math.inf)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        data = [int(v) for v in rng.poisson(2.0, size=8)]
        base = log_evidence(build(data, 2), asym_prior())
        for _ in range(3):
            rng.shuffle(data)
            # log h is an exact sum and the fold reads the data in value order
            assert log_evidence(build(data, 2), asym_prior()).hex() == base.hex()

    def test_label_permutation_invariance(self):
        data = WORKED_DATA
        swapped = MixturePrior(
            (1.0, 1.0), (PoissonGamma(1.0, 10.0), PoissonGamma(1.0, 1.0))
        )
        a = log_evidence(build(data, 2), asym_prior())
        b = log_evidence(build(data, 2), swapped)
        assert a.hex() == b.hex()

    def test_relabelled_asymmetric_priors_give_one_log_evidence(self):
        # a relabelling permutes each entry's terms, which are added in sorted
        # order, and permutes the entries, whose exact total has no order:
        # all six orders of a k=3 prior give one log evidence. A pairwise sum
        # of the entries gave two or more in 13 of these 300 cases
        rng = np.random.default_rng(20261020)
        for _ in range(300):
            data = [int(x) for x in rng.integers(0, 13, int(rng.integers(4, 11)))]
            comps = [PoissonGamma(float(rng.uniform(0.5, 7.1)), float(rng.uniform(0.1, 3.3))) for _ in range(3)]
            alpha = [float(a) for a in rng.uniform(0.3, 2.7, 3)]
            lat = build(data, 3)
            values = {
                log_evidence(lat, MixturePrior(tuple(alpha[i] for i in order), tuple(comps[i] for i in order))).hex()
                for order in itertools.permutations(range(3))
            }
            assert len(values) == 1, (data, comps, alpha)


def _rising(x: Decimal, m: int) -> list[Decimal]:
    """The rising factorials (x)_0, ..., (x)_m."""
    return list(itertools.accumulate((x + i for i in range(m)), operator.mul, initial=Decimal(1)))


def decimal_log_evidence(data: list[int], prior: MixturePrior) -> Decimal:
    """log m(x) of a Poisson mixture to 50 digits, with no log Gamma.

    Over the lattice's exact multiplicities M, m(x) is the sum of
    M * prod_j (alpha_j)_{n_j} (a_j)_{S_j} (b_j / (b_j + n_j))^{a_j} / (b_j + n_j)^{S_j},
    divided by (sum alpha)_n and prod x_i!. Every factor is a rising
    factorial or an integer power, but for one `exp` per count n_j; decimal's
    `ln` and `exp` are correctly rounded.
    """
    lat, n = build(data, prior.k), len(data)
    keys = lat.key_array
    with localcontext() as ctx:
        ctx.prec = 50
        terms = np.array([Decimal(m) for m in lat.mult_array.tolist()], dtype=object)
        for j, (alpha, comp) in enumerate(zip(prior.alpha, prior.components)):
            a, b = Decimal(comp.shape), Decimal(comp.rate)
            # each entry's (n_j, S_j) as one code, and the distinct codes
            span = int(keys[:, 2 * j + 1].max()) + 1
            codes, slot = np.unique(keys[:, 2 * j] * span + keys[:, 2 * j + 1], return_inverse=True)
            up_alpha, up_a, log_b = _rising(Decimal(alpha), n), _rising(a, span), b.ln()
            scale = [(a * (log_b - (b + count).ln())).exp() for count in range(n + 1)]
            pairs = (divmod(code, span) for code in codes.tolist())
            factors = [up_alpha[c] * up_a[s] * scale[c] / (b + c) ** s for c, s in pairs]
            terms *= np.array(factors, dtype=object)[slot]
        total = sum(terms.tolist(), Decimal(0))
        h = math.prod(map(math.factorial, data))
        return (total / (_rising(sum(map(Decimal, prior.alpha)), n)[-1] * h)).ln()


def _reference_cases(count: int = 200):
    """Seeded Poisson cases: k = 2-3, n = 4-12 counts of 0-12, shapes 0.5-7.1,
    rates 0.1-3.3, alpha 0.3-2.7."""
    rng = np.random.default_rng(20261019)
    for _ in range(count):
        k, n = int(rng.integers(2, 4)), int(rng.integers(4, 13))
        data = [int(x) for x in rng.integers(0, 13, n)]
        comps = (PoissonGamma(float(rng.uniform(0.5, 7.1)), float(rng.uniform(0.1, 3.3))) for _ in range(k))
        yield data, MixturePrior(tuple(float(a) for a in rng.uniform(0.3, 2.7, k)), tuple(comps))


def fraction_multinomial_evidence(data: list[tuple[int, ...]], prior: MixturePrior) -> Fraction:
    """m(x) of a multinomial mixture as an exact rational: every double of the
    prior is a dyadic rational, and every factor a rising factorial of one.

    Over the lattice's exact multiplicities M, m(x) is the sum of
    M * prod_j (alpha_j)_{n_j} prod_u (beta_ju)_{S_ju} / (sum_u beta_ju)_{T_j},
    T_j = sum_u S_ju, divided by (sum alpha)_n, times prod_i of the
    multinomial coefficient of row i.
    """
    lat = build(data, prior.k)
    w = lat.slot_width

    @functools.cache
    def rising(x: Fraction, m: int) -> Fraction:
        return math.prod((x + i for i in range(m)), start=Fraction(1))

    alpha = [Fraction(a) for a in prior.alpha]
    betas = [[Fraction(b) for b in comp.concentration] for comp in prior.components]
    total = Fraction(0)
    for key, mult in zip(lat.key_array.tolist(), lat.mult_array.tolist()):
        term = Fraction(mult)
        for j, beta in enumerate(betas):
            count, *sums = key[j * w : (j + 1) * w]
            term *= rising(alpha[j], count) * math.prod(map(rising, beta, sums)) / rising(sum(beta), sum(sums))
        total += term
    h = math.prod(math.factorial(sum(row)) // math.prod(map(math.factorial, row)) for row in data)
    return total * h / rising(sum(alpha), len(data))


def decimal_multinomial_log_evidence(data: list[tuple[int, ...]], prior: MixturePrior) -> Decimal:
    """log m(x) of a multinomial mixture to 50 digits: decimal's correctly
    rounded `ln` of the exact rational's numerator and denominator."""
    value = fraction_multinomial_evidence(data, prior)
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal(value.numerator).ln() - Decimal(value.denominator).ln()


def _multinomial_reference_cases(count: int = 60):
    """Seeded multinomial cases: k = 2-3, v = 2-4 categories, n = 3-6 rows (3-4
    at k = 3) of counts 0-4 with a positive total, beta 0.3-3.1, alpha 0.3-2.7."""
    rng = np.random.default_rng(20261020)
    for _ in range(count):
        k, v = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        n = int(rng.integers(3, 7 if k == 2 else 5))
        data = []
        while len(data) < n:
            row = tuple(int(c) for c in rng.integers(0, 5, v))
            if sum(row):
                data.append(row)
        comps = (DirichletMultinomial(tuple(float(b) for b in rng.uniform(0.3, 3.1, v))) for _ in range(k))
        yield data, MixturePrior(tuple(float(a) for a in rng.uniform(0.3, 2.7, k)), tuple(comps))


class TestDecimalReference:
    """The engine's log evidence against `decimal_log_evidence`, which shares
    the lattice's keys and multiplicities with it and none of its floats."""

    def test_worked_example(self):
        prior = MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0), PoissonGamma(1.0, 10.0)))
        assert repr(float(decimal_log_evidence(WORKED_DATA, prior))) == "-12.490069462412716"

    def test_log_evidence_is_within_32_ulp(self):
        # measured: a median of 1.9 ulp, 5.6 at the 90th percentile, 14.8 at worst
        errors = []
        for data, prior in _reference_cases():
            engine = log_evidence(build(data, prior.k), prior)
            error = abs(Decimal(engine) - decimal_log_evidence(data, prior))
            errors.append(float(error) / math.ulp(engine))
        assert max(errors) <= 32, sorted(errors)[-5:]

    def test_multinomial_log_evidence_is_within_32_ulp(self):
        # against `decimal_multinomial_log_evidence` on 60 seeded cases;
        # measured: a median of 1.6 ulp, 4.5 at the 90th percentile, 9.3 at worst
        errors = []
        for data, prior in _multinomial_reference_cases():
            engine = log_evidence(build(data, prior.k), prior)
            error = abs(Decimal(engine) - decimal_multinomial_log_evidence(data, prior))
            errors.append(float(error) / math.ulp(engine))
        assert max(errors) <= 32, sorted(errors)[-5:]

    def test_multinomial_reference_is_exact_on_a_closed_form(self):
        # beta = (1, 1, 1) twice and alpha = (1, 1): m(x) = 1423/5791500
        prior = MixturePrior((1.0, 1.0), (DirichletMultinomial((1.0, 1.0, 1.0)),) * 2)
        data = [(3, 1, 0), (0, 2, 2), (1, 1, 1)]
        assert fraction_multinomial_evidence(data, prior) == Fraction(1423, 5791500)


class TestMultinomialReference:
    DATA = [(3, 1, 0), (0, 2, 2), (1, 1, 1)]

    def test_symmetric_prior_values(self):
        # beta=(1,1,1) both components, alpha=(1,1): evidence 1423/5791500
        prior = MixturePrior((1.0, 1.0), (DirichletMultinomial((1.0, 1.0, 1.0)),) * 2)
        lat = build(self.DATA, 2)
        assert lat.distinct_count() == 8
        wp = normalize(lat, prior)
        assert math.exp(wp.log_evidence) == pytest.approx(1423 / 5791500, rel=1e-13)
        means = expected_component_means(wp)
        expected = [0.3516858605705107, 0.3501477189610911, 0.2981664204683982]
        assert means[0] == pytest.approx(expected, rel=1e-13)
        assert means[1] == pytest.approx(expected, rel=1e-13)

    def test_asymmetric_prior_values(self):
        # beta (2,1,1) and (1,1,3), alpha=(1,2): evidence 22943/105105000
        prior = MixturePrior(
            (1.0, 2.0),
            (DirichletMultinomial((2.0, 1.0, 1.0)), DirichletMultinomial((1.0, 1.0, 3.0))),
        )
        wp = normalize(build(self.DATA, 2), prior)
        assert math.exp(wp.log_evidence) == pytest.approx(22943 / 105105000, rel=1e-13)
        assert expected_weights(wp)[0] == pytest.approx(0.38079152682735473, rel=1e-13)
        means = expected_component_means(wp)
        assert means[0] == pytest.approx(
            [0.539467375670139, 0.27084513795057313, 0.1896874863792878], rel=1e-13
        )
        assert means[1] == pytest.approx(
            [0.19745552988808013, 0.3121649304798849, 0.49037953963203496], rel=1e-13
        )


class TestNormalizeInvariants:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            data = [int(v) for v in rng.poisson(3.0, size=int(rng.integers(1, 10)))]
            wp = normalize(build(data, 2), asym_prior())
            assert abs(float(wp.weights.sum()) - 1.0) < 1e-12
            assert np.all(wp.weights >= 0)

    def test_single_entry_weight_is_one(self):
        wp = normalize(build([4, 1], 1), sym_prior(1))
        assert wp.weights == pytest.approx([1.0], abs=0)

    def test_singleton_symmetric_split(self):
        # one observation, symmetric components: the two allocations tie
        wp = normalize(build([3], 2), sym_prior())
        assert wp.weights == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_prior_only_lattice(self):
        lat = load(PRIOR_ONLY)
        prior = MixturePrior((2.0, 3.0), (PoissonGamma(1, 1), PoissonGamma(1, 1)))
        wp = normalize(lat, prior)
        assert expected_weights(wp) == pytest.approx([0.4, 0.6], abs=1e-15)
        assert wp.log_evidence == pytest.approx(0.0, abs=1e-12)

    def test_incompatible_prior_rejected(self):
        with pytest.raises(ValueError):
            normalize(build([0, 1], 2), sym_prior(3))
        with pytest.raises(ValueError):
            normalize(
                build([0, 1], 2),
                MixturePrior((1.0, 1.0), (DirichletMultinomial((1, 1)),) * 2),
            )

    def test_expected_means_single_component(self):
        # Gamma(1,1) with data (2,4): E[lambda] = (1+6)/(1+2)
        wp = normalize(build([2, 4], 1), sym_prior(1))
        assert expected_component_means(wp) == pytest.approx([7 / 3], rel=1e-14)

    def test_symmetric_prior_means_agree(self):
        wp = normalize(build(WORKED_DATA, 2), sym_prior())
        means = expected_component_means(wp)
        assert means[0] == pytest.approx(means[1], rel=1e-12)


class TestLogUnnormalizedWeight:
    def test_slot_count_must_match(self):
        with pytest.raises(ValueError):
            log_unnormalized_weight([GroupStat(1, (1,))], 1, asym_prior())

    # digits of 2**60 lie far beyond the entry count, so the engine takes
    # its direct path there instead of a digit table
    @pytest.mark.parametrize("data", [[0, 1, 2], [2**60, 2**60]], ids=["table", "direct"])
    def test_matches_engine_vector(self, data):
        lat = build(data, 2)
        wp = normalize(lat, asym_prior())
        for i, (n1, s1, n2, s2) in enumerate(wp.key_array.tolist()):
            stats_row = [GroupStat(n1, (s1,)), GroupStat(n2, (s2,))]
            value = log_unnormalized_weight(stats_row, wp.multiplicities[i], asym_prior())
            assert value == pytest.approx(float(wp.log_weights[i]), rel=1e-13)

    def test_multiplicity_enters_additively(self):
        stats_row = [GroupStat(1, (0,)), GroupStat(1, (1,))]
        w1 = log_unnormalized_weight(stats_row, 1, sym_prior())
        w6 = log_unnormalized_weight(stats_row, 6, sym_prior())
        assert w6 - w1 == pytest.approx(math.log(6), abs=1e-14)

    def test_unit_shape_factorial_form(self):
        # with Gamma(1, b_j) components and alpha=(1,1) the weight reduces
        # to mu * n1! n2! S1! S2! b1 b2 / ((b1+n1)^(S1+1) (b2+n2)^(S2+1) (n+1)!)
        prior = asym_prior()

        def closed_form(n1, s1, n2, s2):
            num = (
                math.factorial(n1) * math.factorial(n2)
                * math.factorial(s1) * math.factorial(s2) * 1.0 * 10.0
            )
            den = (
                (1.0 + n1) ** (s1 + 1)
                * (10.0 + n2) ** (s2 + 1)
                * math.factorial(n1 + n2 + 1)
            )
            return math.log(num / den)

        for n1, s1, n2, s2 in [(2, 3, 1, 0), (0, 0, 3, 4), (1, 5, 2, 2)]:
            stats_row = [GroupStat(n1, (s1,)), GroupStat(n2, (s2,))]
            got = log_unnormalized_weight(stats_row, 1, prior)
            assert got == pytest.approx(closed_form(n1, s1, n2, s2), rel=1e-13)


class TestMassConcentration:
    def test_single_entry(self):
        wp = normalize(build([2], 1), sym_prior(1))
        assert mass_concentration(wp, 0.99) == 1

    def test_even_split_needs_both(self):
        wp = normalize(build([3], 2), sym_prior())
        assert mass_concentration(wp, 0.99) == 2
        assert mass_concentration(wp, 0.5) == 1

    def test_threshold_validation(self):
        wp = normalize(build([2], 1), sym_prior(1))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                mass_concentration(wp, bad)

    def test_matches_manual_cumulative(self):
        wp = normalize(build(WORKED_DATA, 2), asym_prior())
        order = sorted(range(len(wp.keys)), key=lambda i: (-wp.weights[i], wp.keys[i]))
        acc = 0.0
        manual = 0
        for i in order:
            acc += float(wp.weights[i])
            manual += 1
            if acc >= 0.9:
                break
        assert mass_concentration(wp, 0.9) == manual


class TestLogMultiplicities:
    @pytest.mark.parametrize(
        "mults",
        [
            np.array([1, 2, 2, 3, 1, 2**53 + 1, 2**53, 2**62 - 1, 2**62 - 1], dtype=np.int64),
            np.array([1, 6, 2, 2, 3, 1, 8, 3, 6], dtype=np.int64),  # below their count: a table
            np.array([1, 2**63, 3**45, 2**53 + 1, 2**63, 2**70 - 1], dtype=object),
            np.array([1, 2**1024, 2**1100 - 1, 2**1024, 5], dtype=object),  # beyond the float range
        ],
        ids=["int64", "int64-table", "object", "object-beyond-float"],
    )
    def test_bitwise_equal_to_per_entry_log(self, mults):
        # the returned function gives any block of them the same logs
        expected = np.array([math.log(m) for m in mults.tolist()])
        logs = log_multiplicities(mults)
        assert logs(mults).tobytes() == expected.tobytes()
        for cut in range(1, len(mults)):
            assert np.concatenate([logs(mults[:cut]), logs(mults[cut:])]).tobytes() == expected.tobytes()

    def test_normalize_beyond_the_float_range(self):
        # k**n = 2**1101: multiplicities such as C(1100, 550) exceed every float
        lat = build([0] * 1100 + [3], 2)
        post = normalize(lat, MixturePrior((1.0, 1.0), (PoissonGamma(1, 1),) * 2))
        assert np.isfinite(post.log_evidence)
        assert abs(post.weights.sum() - 1.0) < 1e-12


# log(12 + 4.26) and log(14 + 2.26) are among this case's weight terms, and
# numpy's AVX-512 log rounds 16.26 apart from libm's
RATE_CASE = """
import random
from mixexact import MixturePrior, PoissonGamma, build, normalize
rng = random.Random(3)
data = [rng.choice([0, 1, 2, 3, 5, 8, 9, 12]) for _ in range(24)]
prior = MixturePrior((1.0, 1.0), (PoissonGamma(1, 4.26), PoissonGamma(2, 2.26)))
log_weights = normalize(build(data, 2), prior).log_weights
"""


class TestCpuDispatch:
    def test_log_weights_do_not_depend_on_numpy_dispatch(self):
        # numpy warns at import of a target it did not build or this CPU
        # lacks, and refuses to disable a baseline one
        from numpy._core import _multiarray_umath as umath

        found = [
            target for target in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(target) and target not in umath.__cpu_baseline__
        ]
        if not found:
            pytest.skip("numpy dispatches no target on this CPU")
        scope: dict = {}
        exec(RATE_CASE, scope)
        src = str(Path(mixexact.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "NPY_DISABLE_CPU_FEATURES": " ".join(found),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        proc = subprocess.run(
            [sys.executable, "-c", RATE_CASE + "print(log_weights.tobytes().hex())"],
            env=env, capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.strip() == scope["log_weights"].tobytes().hex()


# seconds a default grid may take on shapes no series reaches; each case
# here takes under 0.1 s on a 2-vCPU host, and a series or continued
# fraction run out to its term cap would take far longer
LARGE_SHAPE_SECONDS = 5.0


class TestNonFiniteResults:
    def test_overflowing_prior_raises_typed_error_without_warnings(self):
        huge = MixturePrior((1e308, 1e308), (PoissonGamma(1.0, 1.0),) * 2)
        lat = build(WORKED_DATA, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                normalize(lat, huge)
            with pytest.raises(NumericalError):
                log_evidence(lat, huge)
        assert issubclass(NumericalError, MixtureError)

    @pytest.mark.parametrize("shape", [1e28, 1e32])
    def test_degenerate_mass_grid_raises_typed_error(self, shape):
        # a member this narrow has no 512 distinct doubles inside its mass;
        # its quantiles are found promptly, with no series to run out
        members = posterior._BetaMembers([shape], [shape], [1.0])
        start = time.perf_counter()
        with pytest.raises(NumericalError):
            posterior.mass_grid(members)
        assert time.perf_counter() - start < LARGE_SHAPE_SECONDS

    def test_divergent_mass_grid_names_each_divergent_edge(self):
        # Beta(0.01, 1) has its 1e-8 quantile at 0.0 and Beta(1, 0.01) its
        # 1 - 1e-8 quantile at 1.0, and each diverges there
        cases = [
            (([0.01, 1.0], [1.0, 0.01]), "edge 0.0 and 1.0"),
            (([0.01], [1.0]), "edge 0.0"),
            (([1.0], [0.01]), "edge 1.0"),
        ]
        for (a, b), named in cases:
            members = posterior._BetaMembers(a, b, np.full(len(a), 1.0 / len(a)))
            with pytest.raises(NumericalError, match=f"diverges at the support {named}; pass an explicit grid"):
                posterior.mass_grid(members)

    @pytest.mark.parametrize("b", [1.0, 3.0])
    def test_mass_on_a_finite_edge_is_not_called_divergent(self, b):
        # Beta(1e300, b) holds its mass within 1e-299 of 1, where its density
        # is finite: both quantiles round onto the edge
        members = posterior._BetaMembers([1e300], [b], [1.0])
        with pytest.raises(NumericalError, match=r"^member mass rounds onto the support edge 1\.0; pass an explicit grid"):
            posterior.mass_grid(members)

    def test_interior_overflow_is_named_without_a_warning(self):
        # a Gamma(1e300, 1) prior puts members whose density overflows exp
        # between the finite ends of the probe
        prior = MixturePrior((1.0, 1.0), (PoissonGamma(1e300, 1.0), PoissonGamma(1.0, 1.0)))
        wp = normalize(build(WORKED_DATA, 2), prior)
        with pytest.raises(NumericalError, match=r"^density overflows inside \[1\.25e\+299, 1e\+300\]; pass an explicit grid"):
            marginal_component_density(wp, 0)


class TestLargeShapes:
    def test_far_clusters_are_answered_promptly(self):
        # Gamma members of shape near 3e9: Temme's expansion, not a series
        data = [2, 5, 1, 3, 0, 4, 10**9, 10**9 + 3, 10**9 - 2]
        wp = normalize(build(data, 2), MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0),) * 2))
        start = time.perf_counter()
        g = marginal_component_density(wp, 0)
        assert time.perf_counter() - start < LARGE_SHAPE_SECONDS
        assert abs(g.trapezoid() - 1.0) <= posterior.DEFAULT_TOLERANCE


class TestIntegerPriorParameters:
    def test_integer_gamma_parameters_match_float_ones(self):
        lat = build(WORKED_DATA, 2)
        as_int = normalize(lat, MixturePrior((1.0, 1.0), (PoissonGamma(1, 1),) * 2))
        as_float = normalize(lat, MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0),) * 2))
        assert summarize(as_int) == summarize(as_float)
        assert expected_component_means(as_int).tobytes() == expected_component_means(as_float).tobytes()
        for j in range(2):
            grid_int = marginal_component_density(as_int, j)
            grid_float = marginal_component_density(as_float, j)
            assert grid_int.grid.tobytes() == grid_float.grid.tobytes()
            assert grid_int.density.tobytes() == grid_float.density.tobytes()


class TestDensityGrids:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_density_raises_typed_error(self, bad):
        with pytest.raises(NumericalError, match="x density is not finite"):
            DensityGrid("x", [1.0, 2.0], [0.5, bad])

    def test_divergent_member_at_a_grid_point_raises_typed_error(self):
        # Gamma(0.5 + 0, 1 + n_1) members with S_1 = 0 diverge at lambda = 0
        prior = MixturePrior((1.0, 1.0), (PoissonGamma(0.5, 1.0),) * 2)
        wp = normalize(build([0, 0, 3], 2), prior)
        with pytest.raises(NumericalError, match="lambda1"):
            marginal_component_density(wp, 0, np.linspace(0.0, 5.0, 4))
        assert np.all(np.isfinite(marginal_component_density(wp, 0, np.linspace(0.1, 5.0, 4)).density))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            DensityGrid("x", [1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            DensityGrid("x", [1.0, 2.0], [0.5, -0.1])
        with pytest.raises(ValueError):
            DensityGrid("x", [1.0, 2.0, 3.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            DensityGrid("x", [1.0], [0.5])

    def test_csv_format(self):
        g = DensityGrid("lambda1", [0.5, 1.0], [0.25, 0.125])
        lines = g.to_csv().splitlines()
        assert lines[0] == "param,density"
        assert lines[1] == "0.5,0.25"
        assert len(lines) == 3

    def test_empty_grid_rejected(self):
        wp = normalize(build([0, 1], 2), asym_prior())
        with pytest.raises(ValueError):
            marginal_component_density(wp, 0, grid=[])

    def test_two_dimensional_grid_rejected_before_any_density(self):
        wp = normalize(build([0, 1], 2), asym_prior())
        with pytest.raises(ValueError, match="1-D"):
            marginal_component_density(wp, 0, [[0.5, 1.0], [2.0, 3.0]])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_grid_point_rejected_before_any_density(self, bad):
        # refused by name, with no RuntimeWarning from the densities first
        wp = normalize(build([0, 1], 2), asym_prior())
        with pytest.raises(ValueError, match="grid points must be finite"):
            marginal_component_density(wp, 0, [0.1, 1.0, bad])
        with pytest.raises(ValueError, match="grid points must be finite"):
            marginal_weight_density(wp, 0, [0.1, 0.5, bad])

    def test_single_component_weight_has_no_density(self):
        wp = normalize(build([0, 1], 1), MixturePrior((1.0,), (PoissonGamma(1.0, 1.0),)))
        with pytest.raises(ValueError, match="p1 is identically 1 when k = 1"):
            marginal_weight_density(wp, 0)

    def test_weight_grid_must_be_inside_unit_interval(self):
        wp = normalize(build([0, 1], 2), asym_prior())
        with pytest.raises(ValueError):
            marginal_weight_density(wp, 0, grid=[0.0, 0.5])
        with pytest.raises(ValueError):
            marginal_weight_density(wp, 0, grid=[0.5, 1.0])

    def test_component_index_validated(self):
        wp = normalize(build([0, 1], 2), asym_prior())
        with pytest.raises(ValueError):
            marginal_component_density(wp, 2)
        with pytest.raises(ValueError):
            marginal_weight_density(wp, -1)

    def test_multinomial_needs_category(self):
        prior = MixturePrior((1.0, 1.0), (DirichletMultinomial((1.0, 1.0, 1.0)),) * 2)
        wp = normalize(build([(1, 1, 0), (0, 1, 2)], 2), prior)
        with pytest.raises(ValueError):
            marginal_component_density(wp, 0)
        with pytest.raises(ValueError):
            marginal_component_density(wp, 0, category=3)
        g = marginal_component_density(wp, 0, category=1)
        assert g.param == "q1,2"

    def test_poisson_takes_no_category(self):
        wp = normalize(build([0, 1], 2), asym_prior())
        with pytest.raises(ValueError, match="no categories"):
            marginal_component_density(wp, 0, category=0)

    def test_default_grids_normalize(self):
        wp = normalize(build(WORKED_DATA, 2), asym_prior())
        for j in range(2):
            for g in (marginal_component_density(wp, j), marginal_weight_density(wp, j)):
                assert g.grid.size == 512
                assert abs(g.trapezoid() - 1.0) < 1e-4

    def test_single_entry_marginal_is_conjugate_density(self):
        wp = normalize(build([2, 4], 1), sym_prior(1))
        grid = np.linspace(0.1, 6.0, 50)
        g = marginal_component_density(wp, 0, grid=grid)
        assert g.density == pytest.approx(
            sps.gamma.pdf(grid, 7.0, scale=1.0 / 3.0), rel=1e-12
        )

    def test_prior_only_weight_marginal_is_uniform(self):
        lat = load(PRIOR_ONLY)
        wp = normalize(lat, sym_prior())
        g = marginal_weight_density(wp, 0, grid=[0.1, 0.4, 0.8])
        assert g.density == pytest.approx([1.0, 1.0, 1.0], abs=1e-13)

    def test_flat_density_has_an_even_default_grid(self):
        # Beta(1, 1) has no curvature to equidistribute: every cell is even in logit p
        g = marginal_weight_density(normalize(load(PRIOR_ONLY), sym_prior()), 0)
        assert g.grid.size == 512
        steps = np.diff(np.log(g.grid / (1.0 - g.grid)))
        assert steps == pytest.approx(np.full(511, 2 * math.log(1e8 - 1) / 511), rel=1e-3)
        assert abs(g.trapezoid() - 1.0) < 1e-4

    def test_symmetric_weight_marginal_is_symmetric(self):
        wp = normalize(build([0, 1, 3], 2), sym_prior())
        pts = np.array([0.2, 0.35, 0.45])
        left = marginal_weight_density(wp, 0, grid=pts).density
        right = marginal_weight_density(wp, 0, grid=1.0 - pts[::-1]).density
        assert left == pytest.approx(right[::-1], rel=1e-12)

class TestDistinctMembers:
    """Default grids over deduplicated members against the oracle's per-member sum."""

    @pytest.fixture(scope="class")
    def poisson_k3(self):
        # distinct powers of two give distinct subset sums, so component 1
        # has 768 distinct (count, sum) members: more than the probe cap
        data = [0, 0, 1, 2, 4, 8, 16, 32, 64, 128]
        prior = sym_prior(3)
        return normalize(build(data, 3), prior), oracle_posterior(data, prior)

    @pytest.fixture(scope="class")
    def multinomial_k2(self):
        data = [(3, 1, 0), (0, 2, 2), (1, 1, 1), (2, 0, 3), (0, 4, 1), (1, 2, 0), (2, 2, 2), (4, 0, 1)]
        prior = MixturePrior((1.0, 1.0), (DirichletMultinomial((1.0, 1.0, 1.0)),) * 2)
        return normalize(build(data, 2), prior), oracle_posterior(data, prior)

    def test_poisson_grid_equals_oracle_sum(self, poisson_k3):
        wp, result = poisson_k3
        members, _ = posterior._component_members(wp, 0, None)
        assert members.weights.size > posterior._PROBE_MEMBER_CAP
        assert members.weights.size < len(wp.key_array)
        g = marginal_component_density(wp, 0)
        assert g.density == pytest.approx(result.component_density(0, g.grid).density, rel=1e-10)
        assert abs(g.trapezoid() - 1.0) < 1e-4

    def test_poisson_symmetric_components_are_bitwise_equal(self, poisson_k3):
        wp, _ = poisson_k3
        first = marginal_component_density(wp, 0)
        for j in (1, 2):
            other = marginal_component_density(wp, j)
            assert np.array_equal(other.grid, first.grid)
            assert np.array_equal(other.density, first.density)

    def test_multinomial_grid_equals_oracle_sum(self, multinomial_k2):
        wp, result = multinomial_k2
        for u in range(3):
            g = marginal_component_density(wp, 0, category=u)
            oracle_grid = result.component_density(0, g.grid, category=u)
            assert g.density == pytest.approx(oracle_grid.density, rel=1e-10)
        g = marginal_weight_density(wp, 0)
        assert g.density == pytest.approx(result.weight_density(0, g.grid).density, rel=1e-10)

    def test_multinomial_symmetric_components_are_bitwise_equal(self, multinomial_k2):
        wp, _ = multinomial_k2
        for u in range(3):
            first = marginal_component_density(wp, 0, category=u)
            other = marginal_component_density(wp, 1, category=u)
            assert np.array_equal(other.grid, first.grid)
            assert np.array_equal(other.density, first.density)

    def test_members_are_summed_per_distinct_parameter(self):
        # digits (S, n) = (1, 2), (0, 0), (1, 2), (0, 0) over the prior Gamma(1, 1)
        pairs = [(np.array([1, 0]), np.array([2, 0])), (np.array([1, 0]), np.array([2, 0]))]  # two blocks
        members = posterior._GammaMembers.of_entries(pairs, (1, 2), np.array([0.1, 0.2, 0.3, 0.4]), 1.0, 1.0)
        shapes, rates = members.params
        assert shapes.tolist() == [1.0, 2.0]
        assert rates.tolist() == [1.0, 3.0]
        assert members.weights.tolist() == [0.2 + 0.4, 0.1 + 0.3]

    def test_digit_pairs_past_one_code_word_are_grouped_as_rows(self):
        # (2**62 + 1) * 8 passes 2**63: the pairs are grouped as rows, and
        # below it as codes x * 8 + y, in the same order, over blocks cut anywhere
        y = np.array([7, 1, 7, 0])
        for top in (2**62, 6):
            x = np.array([top, 0, top, 5])
            for cut in range(5):
                blocks = [(x[:cut], y[:cut]), (x[cut:], y[cut:])]
                xs, ys, index = posterior._distinct_pairs(blocks, (top, 7), 4)
                assert xs.tolist() == [0, 5, top] and ys.tolist() == [1, 0, 7]
                assert index.tolist() == [2, 0, 2, 1]
        # S_1 up to 2**60 + 7 and n_1 up to 8 pass it too: the lambda_1 members
        # are still the oracle's
        data = [2**60] + [1] * 7
        prior = MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0), PoissonGamma(2.0, 1.0)))
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        g = marginal_component_density(normalize(build(data, 2), prior), 0, grid)
        assert g.density == pytest.approx(oracle_posterior(data, prior).component_density(0, grid).density, rel=1e-13)

    def test_support_edge_takes_the_closed_form(self):
        # t = 0 has no finite basis row; shapes 1 and 2 give densities 1 and 0
        members = posterior._GammaMembers([1.0, 2.0], [1.0, 1.0], [0.25, 0.75])
        assert members.mixture_pdf(np.array([-1.0, 0.0])).tolist() == [0.0, 0.25]


def _spread_weights(rng, size: int) -> np.ndarray:
    """Weights from 2**-1074 to 1: every binade, subnormals, zeros and both ends."""
    w = np.ldexp(1.0 + rng.random(size), rng.integers(-1075, 0, size))
    w[rng.random(size) < 0.1] = 0.0
    w[:3] = 2.0**-1074, 1.0, 0.0
    return w


def _permuted(wp, order, weights):
    """wp with its entries in the given order and the given weights: the
    lattice's codes and multiplicities permuted, out of key order."""
    lat = wp.lattice
    codes, mults = lat.codes[:, order].copy(), lat.mult_array[order].copy()
    shuffled = StatLattice._from_codes(lat.family, lat.k, lat.n, codes, lat.radix, lat.totals, mults, lat.log_h_units)
    return replace(wp, lattice=shuffled, weights=weights[order])


class TestExactSums:
    """`posterior._exact_sums` and the grid members it weighs against `math.fsum`."""

    @pytest.mark.parametrize("groups, spread", [(1, True), (7, False), (7, True), (5000, True)])
    def test_each_group_sums_as_fsum_in_any_order(self, groups, spread):
        # a (group, exponent) table larger than the values keeps only its
        # occupied bins: 7 groups over every binade, and 5000 groups
        rng = np.random.default_rng(groups)
        values = _spread_weights(rng, 3000) if spread else rng.random(3000)
        codes = rng.integers(0, groups, 3000)
        sums = posterior._exact_sums(values, codes, groups)
        expected = [math.fsum(values[codes == g].tolist()) for g in range(groups)]
        assert sums.tolist() == expected
        order = rng.permutation(values.size)
        assert posterior._exact_sums(values[order], codes[order], groups).tolist() == expected
        assert posterior._exact_sums(values).tolist() == [math.fsum(values.tolist())]

    def test_sums_ignore_the_block_size(self, monkeypatch):
        rng = np.random.default_rng(3)
        values, codes = _spread_weights(rng, 1000), rng.integers(0, 4, 1000)
        expected = posterior._exact_sums(values, codes, 4)
        monkeypatch.setattr(posterior, "_SUM_BLOCK", 7)
        assert np.array_equal(posterior._exact_sums(values, codes, 4), expected)

    def test_blocks_sum_as_fsum_of_their_rows(self):
        # (groups, rows) blocks, row g of each holding values of group g,
        # over every binade: each group's bins span every exponent
        rng = np.random.default_rng(5)
        values = _spread_weights(rng, 3000).reshape(3, 1000)
        blocks = (values[:, lo : lo + 128] for lo in range(0, 1000, 128))
        assert posterior._exact_sums(blocks, groups=3).tolist() == [math.fsum(row.tolist()) for row in values]

    def test_zeros_sum_to_zero(self):
        assert posterior._exact_sums(np.zeros(5), np.array([0, 2, 2, 0, 2]), 3).tolist() == [0.0, 0.0, 0.0]

    @staticmethod
    def _fsum_members(x, y, weights):
        """The distinct (x, y) pairs in ascending order and the fsum of each one's weights."""
        groups: dict = {}
        for pair, w in zip(zip(x.tolist(), y.tolist()), weights.tolist()):
            groups.setdefault(pair, []).append(w)
        pairs = sorted(groups)
        return pairs, [math.fsum(groups[pair]) for pair in pairs]

    def _check(self, members, x, y, weights, a0, b0):
        pairs, sums = self._fsum_members(x, y, weights)
        assert members.params[0].tolist() == [a0 + px for px, _ in pairs]
        assert members.params[1].tolist() == [b0 + py for _, py in pairs]
        assert members.weights.tolist() == sums

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_poisson_members_weigh_the_fsum_of_their_entries(self, shuffle):
        prior = MixturePrior((0.5, 1.5, 2.5), tuple(PoissonGamma(1.0 + j, 0.5 + j) for j in range(3)))
        wp = normalize(build([0, 1, 1, 3, 4, 6, 9, 9], 3), prior)
        rng = np.random.default_rng(11)
        order = rng.permutation(len(wp.weights)) if shuffle else np.arange(len(wp.weights))
        wp = _permuted(wp, order, _spread_weights(rng, len(wp.weights)))
        keys, alpha = wp.key_array, wp.prior.alpha
        for j, comp in enumerate(prior.components):
            counts, sums = keys[:, 2 * j], keys[:, 2 * j + 1]
            members, _ = posterior._component_members(wp, j, None)
            self._check(members, sums, counts, wp.weights, comp.shape, comp.rate)
            members = posterior._weight_members(wp, j)
            self._check(members, counts, wp.n - counts, wp.weights, alpha[j], math.fsum(alpha) - alpha[j])

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_q_members_weigh_the_fsum_of_their_entries(self, shuffle):
        beta = ((0.3, 0.7, 1.9), (2.1, 0.2, 0.55))
        prior = MixturePrior((0.3, 2.7), tuple(DirichletMultinomial(b) for b in beta))
        # 974 entries and 118 q1,1 members: about eight entries to a member
        data = [(2, 2, 0), (2, 1, 1), (1, 0, 2), (0, 0, 1), (1, 1, 0), (0, 2, 0)]
        data += [(1, 2, 0), (0, 1, 0), (2, 0, 2), (2, 2, 0), (1, 1, 1), (1, 2, 1)]
        wp = normalize(build(data, 2), prior)
        rng = np.random.default_rng(12)
        order = rng.permutation(len(wp.weights)) if shuffle else np.arange(len(wp.weights))
        wp = _permuted(wp, order, _spread_weights(rng, len(wp.weights)))
        for j in range(2):
            aggregates = wp.key_array[:, 4 * j + 1 : 4 * j + 4]
            for u in range(3):
                members, _ = posterior._component_members(wp, j, u)
                s = aggregates[:, u]
                rest = aggregates.sum(axis=1) - s
                self._check(members, s, rest, wp.weights, beta[j][u], math.fsum(beta[j]) - beta[j][u])


def _mean_cases() -> dict:
    """name: (data, prior), seeded Poisson and multinomial cases of k = 1..4
    under asymmetric priors, and keys of two code words."""
    rng = np.random.default_rng(31)
    hyper = functools.partial(rng.uniform, 0.25, 6.0)
    cases = {}
    for k, n in zip(range(1, 5), (9, 8, 7, 6)):
        alpha = tuple(hyper(k).tolist())
        comps = [PoissonGamma(*hyper(2).tolist()) for _ in range(k)]
        cases[f"poisson-k{k}"] = (rng.integers(0, 9, n).tolist(), MixturePrior(alpha, comps))
        comps = [DirichletMultinomial(tuple(hyper(3).tolist())) for _ in range(k)]
        rows = [tuple(row) for row in rng.integers(0, 4, (n - 2, 3)).tolist() if sum(row)]
        cases[f"multinomial-k{k}"] = (rows, MixturePrior(alpha, comps))
    cases["two-words"] = ([2**31, 1], sym_prior(3))
    return cases


MEAN_CASES = _mean_cases()


class TestExactMeans:
    """Every mean of `summarize` is the correctly rounded sum of its products."""

    @staticmethod
    def _shown(wp) -> dict:
        summary = summarize(wp)
        flat = [m for comp in summary.expected_means for m in comp]
        weights = {f"p{j + 1}": w for j, w in enumerate(summary.expected_weights)}
        return {**weights, **dict(zip(summary.mean_labels(), flat))}

    @staticmethod
    def _fsums(wp) -> dict:
        """math.fsum of each mean's products w_e * m_e, m_e from the whole key array."""
        keys, w, alpha = wp.key_array, wp.slot_width, wp.prior.alpha
        means = {}
        for j, comp in enumerate(wp.prior.components):
            counts, aggregates = keys[:, j * w], keys[:, j * w + 1 : (j + 1) * w].T
            means[f"p{j + 1}"] = (counts + alpha[j]) / (wp.n + math.fsum(alpha))
            if wp.family == "poisson":
                means[f"lambda{j + 1}"] = (aggregates[0] + comp.shape) / (counts + comp.rate)
                continue
            # the Dirichlet total, each entry's beta_u + S_u added in sequence
            total = sum(s + b for s, b in zip(aggregates, comp.concentration))
            for u, (s, b) in enumerate(zip(aggregates, comp.concentration)):
                means[f"q{j + 1},{u + 1}"] = (s + b) / total
        return {label: math.fsum((wp.weights * m).tolist()) for label, m in means.items()}

    @pytest.mark.parametrize("name", list(MEAN_CASES))
    def test_each_mean_is_the_fsum_of_its_products(self, name):
        data, prior = MEAN_CASES[name]
        wp = normalize(build(data, prior.k), prior)
        shown = self._shown(wp)
        assert shown == self._fsums(wp)
        assert expected_weights(wp).tolist() == [shown[f"p{j + 1}"] for j in range(wp.k)]
        means = expected_component_means(wp)
        assert means.shape == ((wp.k,) if wp.family == "poisson" else (wp.k, wp.slot_width - 1))
        assert means.ravel().tolist() == [shown[label] for label in summarize(wp).mean_labels()]

    @pytest.mark.parametrize("name", list(MEAN_CASES))
    def test_means_ignore_entry_order_and_block_size(self, name, monkeypatch):
        data, prior = MEAN_CASES[name]
        wp = normalize(build(data, prior.k), prior)
        expected = self._shown(wp)
        order = np.random.default_rng(7).permutation(len(wp.weights))
        assert self._shown(_permuted(wp, order, wp.weights)) == expected
        for rows in (1, 3):
            monkeypatch.setattr(mixexact.lattice, "_BLOCK_ROWS", rows)
            assert self._shown(wp) == expected


class TestSummaryLabels:
    def test_multinomial_labels(self):
        summary = PosteriorSummary(
            family="multinomial",
            k=2,
            n=3,
            distinct=8,
            mass99=5,
            log_evidence=-1.0,
            expected_weights=(0.5, 0.5),
            expected_means=((0.2, 0.3, 0.5), (0.4, 0.4, 0.2)),
        )
        assert summary.mean_labels() == ["q1,1", "q1,2", "q1,3", "q2,1", "q2,2", "q2,3"]
        text = summary.to_text()
        assert "E_q2,3=0.2" in text

    def test_normal_labels(self):
        summary = PosteriorSummary(
            family="normal",
            k=2,
            n=3,
            distinct=8,
            mass99=8,
            log_evidence=-1.0,
            expected_weights=(0.5, 0.5),
            expected_means=((0.1,), (0.2,)),
        )
        assert summary.mean_labels() == ["mu1", "mu2"]
