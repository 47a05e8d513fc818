"""Tests for the brute-force oracle and the independent quadrature check."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from mixexact import lattice, posterior
from mixexact.errors import NumericalError, OracleCapError
from mixexact.families import DirichletMultinomial, GroupStat, NormalInverseGamma, PoissonGamma
from mixexact.oracle import (
    compare_report,
    enumerate_allocations,
    oracle_distinct_statistics,
    oracle_posterior,
    quadrature_evidence,
    weight_table_csv,
)
from mixexact.posterior import MixturePrior

WORKED_DATA = [0, 0, 0, 1, 2, 2, 4]


def asym_prior() -> MixturePrior:
    return MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0), PoissonGamma(1.0, 10.0)))


def nig_prior(k: int = 2) -> MixturePrior:
    return MixturePrior(
        (1.0,) * k, tuple(NormalInverseGamma(0.0, 1.0, 3.0, 2.0) for _ in range(k))
    )


class TestEnumerateAllocations:
    def test_lexicographic_order(self):
        assert list(enumerate_allocations(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_count_is_k_to_the_n(self):
        assert sum(1 for _ in enumerate_allocations(5, 3)) == 3**5

    def test_entries_run_from_one_to_k(self):
        for z in enumerate_allocations(3, 3):
            assert all(1 <= zi <= 3 for zi in z)

    def test_cap_enforced(self):
        with pytest.raises(OracleCapError):
            enumerate_allocations(10, 2, cap=1000)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            enumerate_allocations(0, 2)
        with pytest.raises(ValueError):
            enumerate_allocations(2, 0)


class TestDiscreteOracle:
    def test_distinct_statistics_counts(self):
        assert oracle_distinct_statistics([0, 1], 2) == 4
        assert oracle_distinct_statistics([0, 0], 2) == 3
        assert oracle_distinct_statistics(WORKED_DATA, 2) == 42
        assert oracle_distinct_statistics(np.array(WORKED_DATA), 2) == 42

    def test_grouping_matches_lattice(self):
        lat = lattice.build(WORKED_DATA, 2)
        result = oracle_posterior(WORKED_DATA, asym_prior())
        assert result.keys == tuple(map(tuple, lat.key_array.tolist()))
        assert result.multiplicities == tuple(lat.mult_array.tolist())

    def test_compare_report_on_worked_example(self):
        wp = posterior.normalize(lattice.build(WORKED_DATA, 2), asym_prior())
        ok, worst, text = compare_report(wp, oracle_posterior(WORKED_DATA, asym_prior()))
        assert ok
        assert worst <= 1e-10
        assert text.startswith("MATCH entries=42")

    def test_compare_report_detects_model_mismatch(self):
        wp = posterior.normalize(lattice.build([0, 1], 2), asym_prior())
        other = oracle_posterior([0, 2], asym_prior())
        ok, worst, text = compare_report(wp, other)
        assert not ok
        assert text.startswith("MISMATCH")

    def test_compare_report_detects_key_mismatch(self):
        wp = posterior.normalize(lattice.build([0, 1, 2], 2), asym_prior())
        ok, worst, text = compare_report(wp, oracle_posterior([0, 1, 3], asym_prior()))
        assert (ok, worst, text) == (False, math.inf, "MISMATCH statistic keys differ")

    def test_compare_report_detects_multiplicity_mismatch(self):
        wp = posterior.normalize(lattice.build([0, 1, 2], 2), asym_prior())
        result = oracle_posterior([0, 1, 2], asym_prior())
        mults = (result.multiplicities[0] + 1, *result.multiplicities[1:])
        ok, worst, text = compare_report(wp, dataclasses.replace(result, multiplicities=mults))
        assert (ok, worst, text) == (False, math.inf, "MISMATCH multiplicities differ")

    def test_compare_report_detects_weight_deviation(self):
        wp = posterior.normalize(lattice.build([0, 1, 2], 2), asym_prior())
        other = MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0), PoissonGamma(1.0, 2.0)))
        ok, worst, text = compare_report(wp, oracle_posterior([0, 1, 2], other))
        assert not ok
        assert worst > 1e-10
        assert text == f"MISMATCH entries={len(wp.keys)} max_rel={worst:.3e}"

    def test_densities_match_engine(self):
        data = [0, 1, 4]
        wp = posterior.normalize(lattice.build(data, 2), asym_prior())
        result = oracle_posterior(data, asym_prior())
        grid = np.linspace(0.05, 6.0, 40)
        for j in range(2):
            engine = posterior.marginal_component_density(wp, j, grid=grid)
            oracle_grid = result.component_density(j, grid)
            assert oracle_grid.param == f"lambda{j + 1}"
            assert engine.density == pytest.approx(oracle_grid.density, rel=1e-12)
        pgrid = np.linspace(0.05, 0.95, 19)
        for j in range(2):
            engine = posterior.marginal_weight_density(wp, j, grid=pgrid)
            oracle_grid = result.weight_density(j, pgrid)
            assert engine.density == pytest.approx(oracle_grid.density, rel=1e-12)

    @pytest.mark.parametrize("data, prior", [([0, 1, 2], asym_prior()), ([-0.4, 0.9], nig_prior())])
    def test_category_density_needs_multinomial(self, data, prior):
        result = oracle_posterior(data, prior)
        with pytest.raises(ValueError, match="no categories"):
            result.component_density(0, np.linspace(0.1, 2.0, 5), category=0)

    MULTINOMIAL_DATA = [(2, 1, 0), (0, 1, 2), (1, 1, 1)]
    MULTINOMIAL_PRIOR = MixturePrior((1.0, 1.0), (DirichletMultinomial((1.0, 1.0, 1.0)),) * 2)

    @pytest.mark.parametrize(
        "multinomial, k, weight, j, category",
        [
            pytest.param(False, 2, False, -1, None, id="lambda-negative"),
            pytest.param(False, 2, False, 2, None, id="lambda-k"),
            pytest.param(False, 2, False, 0, 0, id="lambda-category"),
            pytest.param(False, 2, True, -1, None, id="p-negative"),
            pytest.param(False, 2, True, 2, None, id="p-k"),
            pytest.param(False, 1, True, 0, None, id="p-k1"),
            pytest.param(True, 2, False, -1, 0, id="q-negative-component"),
            pytest.param(True, 2, False, 0, None, id="q-no-category"),
            pytest.param(True, 2, False, 0, -1, id="q-negative-category"),
            pytest.param(True, 2, False, 0, 3, id="q-category-v"),
            pytest.param(False, 2, False, 0.5, None, id="lambda-half"),
            pytest.param(False, 2, False, 1.0, None, id="lambda-float-one"),
            pytest.param(False, 2, True, 0.5, None, id="p-half"),
            pytest.param(False, 2, True, 1.0, None, id="p-float-one"),
            pytest.param(True, 2, False, 0, 0.5, id="q-category-half"),
            pytest.param(True, 2, False, 0, 1.0, id="q-category-float-one"),
        ],
    )
    def test_bad_indices_raise_the_engine_message(self, multinomial, k, weight, j, category):
        if multinomial:
            data, prior = self.MULTINOMIAL_DATA, self.MULTINOMIAL_PRIOR
        else:
            data, prior = [0, 1, 4], MixturePrior((1.0,) * k, (PoissonGamma(1.0, 1.0),) * k)
        wp = posterior.normalize(lattice.build(data, k), prior)
        result = oracle_posterior(data, prior)
        grid = np.linspace(0.05, 0.95, 19)
        if weight:
            calls = [lambda: posterior.marginal_weight_density(wp, j, grid), lambda: result.weight_density(j, grid)]
        else:
            calls = [
                lambda: posterior.marginal_component_density(wp, j, grid, category=category),
                lambda: result.component_density(j, grid, category=category),
            ]
        messages = []
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        if isinstance(j, float) or isinstance(category, float):
            assert messages[0].endswith("is not an integer")

    def test_summary_round_numbers(self):
        result = oracle_posterior(WORKED_DATA, asym_prior())
        summary = result.summary()
        assert summary.distinct == 42
        assert summary.expected_weights[0] == pytest.approx(0.6485753850390694, rel=1e-12)
        assert math.exp(summary.log_evidence) == pytest.approx(3.76384520427329e-06, rel=1e-12)


    def test_overflowing_prior_raises_typed_error(self):
        huge = MixturePrior((1e308, 1e308), (PoissonGamma(1.0, 1.0),) * 2)
        with pytest.raises(NumericalError):
            oracle_posterior(WORKED_DATA, huge)

    @pytest.mark.parametrize("k", [2, 3])
    def test_vectorized_mass_concentration_matches_oracle_loop(self, k):
        # symmetric priors tie weights across relabeled keys
        prior = MixturePrior((1.0,) * k, (PoissonGamma(1.0, 1.0),) * k)
        wp = posterior.normalize(lattice.build(WORKED_DATA, k), prior)
        result = oracle_posterior(WORKED_DATA, prior)
        for threshold in (0.1, 0.5, 0.9, 0.99, 0.999999, 1.0):
            engine = posterior.mass_concentration(wp, threshold)
            assert engine == result.mass_concentration(threshold)


class TestWeightTable:
    def test_shape_and_header(self):
        table = weight_table_csv([0, 1], asym_prior())
        lines = table.splitlines()
        assert lines[0] == "allocation,statistic,log_weight"
        assert len(lines) == 1 + 4
        assert [line.split(",")[0] for line in lines[1:]] == ["11", "12", "21", "22"]

    def test_collision_weights_add_up(self):
        # data (0,0): allocations 12 and 21 share the statistic (1,0,1,0);
        # the lattice weight must equal the table's two rows plus log 2
        prior = MixturePrior((1.0, 1.0), (PoissonGamma(1, 1), PoissonGamma(1, 1)))
        table = weight_table_csv([0, 0], prior)
        rows = {line.split(",")[0]: float(line.rsplit(",", 1)[1]) for line in table.splitlines()[1:]}
        assert rows["12"] == pytest.approx(rows["21"], abs=1e-14)

        wp = posterior.normalize(lattice.build([0, 0], 2), prior)
        i = wp.keys.index((1, 0, 1, 0))
        assert float(wp.log_weights[i]) == pytest.approx(rows["12"] + math.log(2), rel=1e-13)


class TestNormalOracle:
    def test_symmetric_weights(self):
        result = oracle_posterior([-0.4, 0.9, 2.1], nig_prior())
        assert result.expected_weights() == pytest.approx([0.5, 0.5], abs=1e-13)

    def test_distinct_values_give_all_subsets(self):
        # three distinct reals, k=2: every allocation is its own partition
        result = oracle_posterior([-0.4, 0.9, 2.1], nig_prior())
        assert len(result.keys) == 8

    def test_tied_values_group_by_partition(self):
        # data (1.0, 1.0): allocations 12 and 21 carry the same partition
        result = oracle_posterior([1.0, 1.0], nig_prior())
        assert len(result.keys) == 3
        assert sorted(result.multiplicities) == [1, 1, 2]

    def test_single_component_recovers_conjugate_update(self):
        data = [0.5, -1.0, 2.0]
        prior = nig_prior(1)
        result = oracle_posterior(data, prior)
        assert len(result.keys) == 1
        assert result.weights == pytest.approx([1.0], abs=0)
        post = result.component_posteriors(0)[0]
        t1 = sum(data)
        t2 = sum(x * x for x in data)
        comp = prior.components[0]
        expect = comp.updated(GroupStat(3, (t1, t2)))
        assert post.location == pytest.approx(expect.location, abs=1e-15)
        assert post.precision_scale == expect.precision_scale
        assert post.shape == expect.shape
        assert post.scale == pytest.approx(expect.scale, rel=1e-15)

    def test_mu_density_symmetry(self):
        result = oracle_posterior([-0.4, 0.9], nig_prior())
        grid = np.linspace(-3.0, 3.0, 31)
        g1 = result.component_density(0, grid)
        g2 = result.component_density(1, grid)
        assert g1.param == "mu1"
        assert g1.density == pytest.approx(g2.density, rel=1e-12)

    def test_duplicate_heavy_data_conserves_multiplicity(self):
        result = oracle_posterior([1.0, 1.0, 1.0, 2.0], nig_prior())
        assert sum(result.multiplicities) == 2**4


class TestQuadrature:
    def test_poisson_matches_closed_form(self):
        data = [0, 1]
        lat = lattice.build(data, 2)
        closed = posterior.log_evidence(lat, asym_prior())
        quad = quadrature_evidence(data, asym_prior())
        assert quad == pytest.approx(closed, rel=1e-10)

    def test_poisson_k1_negative_binomial(self):
        prior = MixturePrior((1.0,), (PoissonGamma(1.0, 1.0),))
        assert math.exp(quadrature_evidence([3], prior)) == pytest.approx(2.0**-4, rel=1e-10)

    def test_normal_matches_closed_form(self):
        data = [-0.3, 1.2, 0.4]
        closed = oracle_posterior(data, nig_prior()).log_evidence
        quad = quadrature_evidence(data, nig_prior())
        assert quad == pytest.approx(closed, rel=1e-6)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            quadrature_evidence([1, 2, 3, 4, 5], asym_prior())

    def test_family_guard(self):
        prior = MixturePrior((1.0,), (DirichletMultinomial((1.0, 1.0)),))
        with pytest.raises(ValueError):
            quadrature_evidence([(1, 0)], prior)


class TestInvalidData:
    """Every oracle entry point that reads data checks each observation."""

    def test_weight_table_rejects_a_fractional_count(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            weight_table_csv([1.5, 2], asym_prior())

    def test_weight_table_rejects_a_wrong_category_count(self):
        prior = MixturePrior((1.0,), (DirichletMultinomial((1.0, 1.0)),))
        with pytest.raises(ValueError, match="expected 2 categories"):
            weight_table_csv([(1, 0, 2)], prior)

    def test_quadrature_rejects_a_fractional_count(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            quadrature_evidence([1.5], asym_prior())

    def test_posterior_rejects_a_fractional_count(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            oracle_posterior([1.5], asym_prior())

    def test_distinct_statistics_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            oracle_distinct_statistics([0, -1], 2)

    def test_distinct_statistics_rejects_empty_data(self):
        # as lattice.build does, rather than an IndexError from data[0]
        with pytest.raises(ValueError, match="dataset must be non-empty"):
            oracle_distinct_statistics([], 2)

    def test_distinct_statistics_rejects_ragged_categories(self):
        with pytest.raises(ValueError, match="expected 2 categories"):
            oracle_distinct_statistics([(1, 0), (1, 0, 0)], 2)


# (family, values, NumPy dtype, k): each value fits its dtype, and the row
# total or x + 1 of some value does not
NUMPY_INTEGER_CASES = {
    "uint8-poisson": ("poisson", [255, 3, 7], np.uint8, 2),
    "uint8-multinomial": ("multinomial", [[200, 100], [3, 4]], np.uint8, 2),
    "uint8-positive-total": ("multinomial", [[128, 128]], np.uint8, 2),
    "int8-poisson": ("poisson", [127, 3, 7], np.int8, 2),
    "int8-multinomial": ("multinomial", [[100, 100], [3, 4]], np.int8, 2),
    "int64-poisson": ("poisson", [2**63 - 1], np.int64, 1),
    "int64-multinomial": ("multinomial", [[2**62, 2**62]], np.int64, 1),
}


@pytest.mark.parametrize("family,values,dtype,k", NUMPY_INTEGER_CASES.values(), ids=NUMPY_INTEGER_CASES)
def test_numpy_integers_give_the_python_int_evidence(family, values, dtype, k):
    array = np.array(values, dtype=dtype)
    if family == "poisson":
        as_numpy, as_python = list(array), values
        component = PoissonGamma(1.0, 1.0)
    else:
        as_numpy, as_python = [tuple(row) for row in array], [tuple(row) for row in values]
        component = DirichletMultinomial((1.0, 1.0))
    prior = MixturePrior((1.0,) * k, (component,) * k)
    engine = [posterior.log_evidence(lattice.build(data, k), prior) for data in (as_numpy, as_python)]
    oracle = [oracle_posterior(data, prior).log_evidence for data in (as_numpy, as_python)]
    assert math.isfinite(engine[1]) and math.isfinite(oracle[1])
    assert engine[0].hex() == engine[1].hex()
    assert oracle[0].hex() == oracle[1].hex()
