"""Unit tests for weights, moments, evidence, and density grids.

Reference numbers were produced by an exact rational-arithmetic evaluation
of the defining sums (Fraction-based, no floats) and are trusted to all
printed digits.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import mixexact
from mixexact import posterior
from mixexact.errors import MixtureError, NumericalError
from mixexact.families import DirichletMultinomial, GroupStat, PoissonGamma
from mixexact.lattice import build, load, log_multiplicities
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
        assert a == pytest.approx(b, rel=1e-13)


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
            np.array([1, 2**63, 3**45, 2**53 + 1, 2**63, 2**70 - 1], dtype=object),
            np.array([1, 2**1024, 2**1100 - 1, 2**1024, 5], dtype=object),  # beyond the float range
        ],
        ids=["int64", "object", "object-beyond-float"],
    )
    def test_bitwise_equal_to_per_entry_log(self, mults):
        expected = np.array([math.log(m) for m in mults.tolist()])
        assert log_multiplicities(mults).tobytes() == expected.tobytes()

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
        # a member this narrow has no 512 distinct doubles inside its mass
        members = posterior._BetaMembers([shape], [shape], [1.0])
        with pytest.raises(NumericalError):
            posterior.mass_grid(members)

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

    def test_interior_overflow_is_named_without_a_warning(self):
        # a Gamma(1e300, 1) prior puts members whose density overflows exp
        # between the finite ends of the probe
        prior = MixturePrior((1.0, 1.0), (PoissonGamma(1e300, 1.0), PoissonGamma(1.0, 1.0)))
        wp = normalize(build(WORKED_DATA, 2), prior)
        with pytest.raises(NumericalError, match=r"^density overflows inside \[1\.25e\+299, 1e\+300\]; pass an explicit grid"):
            marginal_component_density(wp, 0)


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
        members = posterior._GammaMembers([2.0, 1.0, 2.0, 1.0], [3.0, 1.0, 3.0, 1.0], [0.1, 0.2, 0.3, 0.4])
        shapes, rates = members.params
        assert shapes.tolist() == [1.0, 2.0]
        assert rates.tolist() == [1.0, 3.0]
        assert members.weights.tolist() == [0.2 + 0.4, 0.1 + 0.3]

    def test_support_edge_takes_the_closed_form(self):
        # t = 0 has no finite basis row; shapes 1 and 2 give densities 1 and 0
        members = posterior._GammaMembers([1.0, 2.0], [1.0, 1.0], [0.25, 0.75])
        assert members.mixture_pdf(np.array([-1.0, 0.0])).tolist() == [0.0, 0.25]


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
