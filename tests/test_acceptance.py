"""Acceptance gate: one test per shipped criterion, at the stated tolerance.

Each test wraps its checks in the `criterion` recorder from conftest, which
prints one PASS/FAIL line per criterion in the terminal summary. Timed
criteria assert their wall-clock budgets; tolerances are stated inline.
"""

from __future__ import annotations

import math
import resource
import time

import numpy as np
from conftest import criterion

from mixexact import cli, datasets, lattice, oracle, posterior
from mixexact.families import (
    DirichletMultinomial,
    NormalInverseGamma,
    PoissonGamma,
)
from mixexact.posterior import MixturePrior

WORKED_DATA = [0, 0, 0, 1, 2, 2, 4]
TEN_COUNTS = [0, 0, 0, 1, 2, 2, 4, 9, 11, 10]

ASYM_PRIOR = MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0), PoissonGamma(1.0, 10.0)))


def sym_poisson(k: int) -> MixturePrior:
    return MixturePrior((1.0,) * k, tuple(PoissonGamma(1.0, 1.0) for _ in range(k)))


def sym_multinomial(k: int, v: int) -> MixturePrior:
    return MixturePrior((1.0,) * k, tuple(DirichletMultinomial((1.0,) * v) for _ in range(k)))


def rel_dev(a, b) -> float:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b) / scale))


def poisson_seed_set():
    """Fixed seed set for the oracle-equivalence protocol."""
    cases = [(2, n, 100 + n) for n in range(1, 11)]
    cases += [(3, n, 200 + n) for n in range(1, 8)]
    out = []
    for k, n, seed in cases:
        rng = np.random.default_rng(seed)
        rate = float(rng.choice([1.0, 4.0, 10.0]))
        data = [int(v) for v in rng.poisson(rate, size=n)]
        out.append((k, data))
    return out


def multinomial_seed_set():
    """Rows over 3 categories with totals in 2..5, two components."""
    out = []
    for n, seed in [(2, 301), (5, 302), (8, 303)]:
        rng = np.random.default_rng(seed)
        data = []
        for _ in range(n):
            d = int(rng.integers(2, 6))
            row = rng.multinomial(d, [0.5, 0.3, 0.2])
            data.append(tuple(int(c) for c in row))
        out.append(data)
    return out


def test_criterion_1_conservation():
    with criterion(1, "conservation over randomized datasets"):
        rng = np.random.default_rng(20260819)
        start = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(1, 16))
            k = int(rng.integers(1, 5))
            rate = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            data = [int(v) for v in rng.poisson(rate, size=n)]
            lat = lattice.build(data, k)
            assert lat.total_count() == k**n  # exact integer equality
        assert time.perf_counter() - start < 10.0


def test_criterion_2_poisson_oracle_equivalence():
    with criterion(2, "Poisson oracle equivalence"):
        start = time.perf_counter()
        for k, data in poisson_seed_set():
            prior = MixturePrior(
                (1.0,) * k, tuple(PoissonGamma(1.0, float(b)) for b in range(1, k + 1))
            )
            wp = posterior.normalize(lattice.build(data, k), prior)
            orc = oracle.oracle_posterior(data, prior)
            # keys and multiplicities must be identical; weights, E[p],
            # E[lambda], and evidence within 1e-10 relative
            assert wp.keys == orc.keys
            assert wp.multiplicities == orc.multiplicities
            ok, worst, text = oracle.compare_report(wp, orc)
            assert ok and worst <= 1e-10, text
            # one density grid per parameter
            for j in range(k):
                g = posterior.marginal_component_density(wp, j)
                assert rel_dev(g.density, orc.component_density(j, g.grid).density) <= 1e-10
                gp = posterior.marginal_weight_density(wp, j)
                assert rel_dev(gp.density, orc.weight_density(j, gp.grid).density) <= 1e-10
        assert time.perf_counter() - start < 60.0


def test_criterion_3_multinomial_oracle_equivalence():
    with criterion(3, "multinomial oracle equivalence"):
        start = time.perf_counter()
        for data in multinomial_seed_set():
            for prior in (
                sym_multinomial(2, 3),
                MixturePrior(
                    (1.0, 2.0),
                    (
                        DirichletMultinomial((2.0, 1.0, 1.0)),
                        DirichletMultinomial((1.0, 1.0, 3.0)),
                    ),
                ),
            ):
                wp = posterior.normalize(lattice.build(data, 2), prior)
                orc = oracle.oracle_posterior(data, prior)
                assert wp.keys == orc.keys
                assert wp.multiplicities == orc.multiplicities
                ok, worst, text = oracle.compare_report(wp, orc)
                assert ok and worst <= 1e-10, text
                for j in range(2):
                    for u in range(3):
                        g = posterior.marginal_component_density(wp, j, category=u)
                        og = orc.component_density(j, g.grid, category=u)
                        assert rel_dev(g.density, og.density) <= 1e-10
                    gp = posterior.marginal_weight_density(wp, j)
                    assert rel_dev(gp.density, orc.weight_density(j, gp.grid).density) <= 1e-10
        assert time.perf_counter() - start < 60.0


def test_criterion_4_closed_form_evidence():
    with criterion(4, "single-count closed-form evidence"):
        prior = MixturePrior((1.0,), (PoissonGamma(1.0, 1.0),))
        for x in range(11):
            m = math.exp(posterior.log_evidence(lattice.build([x], 1), prior))
            assert rel_dev(m, 2.0 ** (-(x + 1))) <= 1e-12


def test_criterion_5_worked_example_ground_truth():
    with criterion(5, "worked-example distinct count"):
        lat = lattice.build(WORKED_DATA, 2)
        # recorded ground truth from the brute-force enumeration: 42
        # distinct statistics over 2^7 = 128 allocations
        assert lat.total_count() == 2**7 == 128
        assert lat.distinct_count() == oracle.oracle_distinct_statistics(WORKED_DATA, 2)
        assert lat.distinct_count() == 42


def test_criterion_6_symmetry_suite():
    with criterion(6, "label symmetry of weights and marginals"):
        fits = []
        # the worked example, and the README's ten counts under the CLI's
        # default prior, PoissonGamma(1, 1) and alpha = 1
        for data in (WORKED_DATA, TEN_COUNTS):
            for k in (2, 3):
                fits.append(posterior.normalize(lattice.build(data, k), sym_poisson(k)))
        mdata = [(3, 1, 0), (0, 2, 2), (1, 1, 1)]
        fits.append(posterior.normalize(lattice.build(mdata, 2), sym_multinomial(2, 3)))

        for wp in fits:
            k = wp.k
            ew = posterior.expected_weights(wp)
            assert np.max(np.abs(ew - 1.0 / k)) <= 1e-12
            # each mean is an exact sum, which no relabelling of the entries
            # moves: bitwise equal across the components
            summary = posterior.summarize(wp)
            assert len(set(summary.expected_weights)) == 1
            assert len(set(summary.expected_means)) == 1
            categories = range(3) if wp.family == "multinomial" else [None]
            for cat in categories:
                ref = posterior.marginal_component_density(wp, 0, category=cat)
                for j in range(1, k):
                    # identical default grids and pointwise identical density
                    gj = posterior.marginal_component_density(wp, j, category=cat)
                    assert rel_dev(ref.grid, gj.grid) <= 1e-10
                    on_ref = posterior.marginal_component_density(wp, j, grid=ref.grid, category=cat)
                    assert rel_dev(ref.density, on_ref.density) <= 1e-10
            pref = posterior.marginal_weight_density(wp, 0)
            for j in range(1, k):
                on_ref = posterior.marginal_weight_density(wp, j, grid=pref.grid)
                assert rel_dev(pref.density, on_ref.density) <= 1e-10


def test_criterion_7_density_normalization():
    with criterion(7, "default grids integrate to one"):
        emitted = []

        def emit_all(wp):
            categories = range(3) if wp.family == "multinomial" else [None]
            for j in range(wp.k):
                for cat in categories:
                    emitted.append(posterior.marginal_component_density(wp, j, category=cat))
                emitted.append(posterior.marginal_weight_density(wp, j))

        emit_all(posterior.normalize(lattice.build(WORKED_DATA, 2), ASYM_PRIOR))
        emit_all(posterior.normalize(lattice.build(WORKED_DATA, 3), sym_poisson(3)))
        emit_all(
            posterior.normalize(
                lattice.build(datasets.poisson_sample(20, 10.0, seed=11), 2), ASYM_PRIOR
            )
        )
        emit_all(
            posterior.normalize(
                lattice.build(
                    datasets.poisson_mixture_sample(12, 0.5, 1.0, 10.0, seed=3), 2
                ),
                sym_poisson(2),
            )
        )
        emit_all(posterior.normalize(lattice.build([15, 18, 20, 30], 2), ASYM_PRIOR))
        mdata = [(3, 1, 0), (0, 2, 2), (1, 1, 1)]
        emit_all(posterior.normalize(lattice.build(mdata, 2), sym_multinomial(2, 3)))
        emit_all(
            posterior.normalize(
                lattice.build(mdata, 2),
                MixturePrior(
                    (1.0, 2.0),
                    (
                        DirichletMultinomial((2.0, 1.0, 1.0)),
                        DirichletMultinomial((1.0, 1.0, 3.0)),
                    ),
                ),
            )
        )

        assert len(emitted) >= 30
        for grid in emitted:
            assert grid.grid.size == 512
            assert abs(grid.trapezoid() - 1.0) <= 1e-4, grid.param


def test_criterion_8_mass_concentration():
    with criterion(8, "posterior mass concentrates on few statistics"):
        data = datasets.poisson_sample(20, 10.0, seed=11)
        wp = posterior.normalize(lattice.build(data, 2), ASYM_PRIOR)
        count = posterior.mass_concentration(wp, 0.99)
        assert count < 0.05 * len(wp.keys)


def test_criterion_9_growth_feasibility():
    with criterion(9, "lattice growth stays tractable"):
        data = datasets.poisson_sample(20, 1.0, seed=42)
        start = time.perf_counter()
        lat2 = lattice.build(data, 2)
        assert time.perf_counter() - start < 1.0
        assert lat2.total_count() == 2**20

        start = time.perf_counter()
        lat3 = lattice.build(data, 3)
        assert time.perf_counter() - start < 60.0
        assert lat3.total_count() == 3**20
        # tens of thousands of distinct statistics, not billions
        assert 1000 < lat3.distinct_count() < 5_000_000
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kb < 2 * 1024 * 1024  # < 2 GB


def test_criterion_10_normal_family():
    with criterion(10, "normal family via oracle and quadrature"):
        nig = NormalInverseGamma(0.0, 1.0, 3.0, 2.0)
        prior2 = MixturePrior((1.0, 1.0), (nig, nig))

        # symmetry analog on six observations
        data6 = [-0.4, 0.9, 2.1, 1.3, -1.7, 0.2]
        result = oracle.oracle_posterior(data6, prior2)
        assert np.max(np.abs(result.expected_weights() - 0.5)) <= 1e-12
        grid = np.linspace(-6.0, 6.0, 512)
        g1 = result.component_density(0, grid)
        g2 = result.component_density(1, grid)
        assert rel_dev(g1.density, g2.density) <= 1e-10

        # k=1 posterior hyperparameters against the textbook formulas,
        # written out independently of the update code
        data3 = [0.5, -1.0, 2.0]
        prior1 = MixturePrior((1.0,), (NormalInverseGamma(1.5, 2.0, 3.0, 4.0),))
        single = oracle.oracle_posterior(data3, prior1)
        assert len(single.keys) == 1
        post = single.component_posteriors(0)[0]
        n = len(data3)
        xbar = math.fsum(data3) / n
        c_n = 2.0 + n
        xi_n = (2.0 * 1.5 + math.fsum(data3)) / c_n
        a_n = 3.0 + n
        b_n = 4.0 + math.fsum((x - xbar) ** 2 for x in data3) + (2.0 * n / c_n) * (xbar - 1.5) ** 2
        assert rel_dev(post.precision_scale, c_n) <= 1e-12
        assert rel_dev(post.location, xi_n) <= 1e-12
        assert rel_dev(post.shape, a_n) <= 1e-12
        assert rel_dev(post.scale, b_n) <= 1e-12

        # independent 2-D quadrature of the evidence at n = 3
        data_q = [-0.3, 1.2, 0.4]
        closed = oracle.oracle_posterior(data_q, prior2).log_evidence
        quad = oracle.quadrature_evidence(data_q, prior2)
        assert rel_dev(math.exp(quad), math.exp(closed)) <= 1e-6


def test_criterion_11_round_trip(tmp_path, capsys):
    with criterion(11, "byte-identical round trips"):
        # lattice dump/load
        for data, k in ((WORKED_DATA, 2), ([(1, 2), (0, 3), (2, 1)], 2)):
            text = lattice.dump(lattice.build(data, k))
            assert lattice.dump(lattice.load(text)) == text

        # repeated CLI runs: artifacts must repeat byte for byte
        data_file = tmp_path / "data.txt"
        data_file.write_text("".join(f"{x}\n" for x in WORKED_DATA))
        base = ["--data", str(data_file), "--family", "poisson", "--k", "2", "--gamma", "1,1;1,10"]

        runs = {
            "posterior": ["posterior", *base],
            "marginal_lambda": ["marginal", *base, "--param", "lambda1"],
            "marginal_p": ["marginal", *base, "--param", "p1"],
            "enumerate": ["enumerate", *base],
            "evidence": ["evidence", *base],
            "concentration": ["concentration", *base],
        }
        for name, argv in runs.items():
            artifacts = []
            for attempt in range(2):
                out_path = tmp_path / f"{name}.{attempt}"
                if name in ("evidence", "concentration"):
                    assert cli.main(argv) == 0
                    artifacts.append(capsys.readouterr().out)
                else:
                    assert cli.main([*argv, "--out", str(out_path)]) == 0
                    capsys.readouterr()
                    artifacts.append(out_path.read_bytes())
            assert artifacts[0] == artifacts[1], name

        # oracle weight table twice
        tables = []
        for attempt in range(2):
            table = tmp_path / f"table{attempt}.csv"
            argv = ["oracle", *base, "--dump-table", str(table), "--out", str(tmp_path / f"os{attempt}")]
            assert cli.main(argv) == 0
            capsys.readouterr()
            tables.append(table.read_bytes())
        assert tables[0] == tables[1]
