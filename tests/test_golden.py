"""Golden digests of lattice dumps, log weights, summaries and density grids.

The dump and log-weight digests were taken from the engine before the
packed-code fold and the digit-table weights replaced the per-step gather
and the direct log-gamma calls; the oracle's log-weight, density and table
digests before the scalar weight moved into the oracle and the conjugate
classes gave their density methods up for free closed forms; the digests of
`DUMPS` before `dump` wrote bytes instead of a `%`-format. So these tests
hold the code to bitwise equal output.

These digests were re-pinned when the posterior and the oracle stopped
calling BLAS, and every other digest held:
- the 7 `GOLDEN` summaries: an expected weight or mean is numpy's pairwise
  sum of one contiguous column of products w_e * m_e, where `weights @
  means` and an `einsum` summed before (a multinomial m_e also divides
  beta_u + S_u by the q marginal's total sum(beta) + sum(S) now, which
  moves only non-dyadic concentrations);
- the 4 `DEFAULT_GRIDS`, the 2 `Q_DENSITIES` and the 2 `EXPLICIT_GRIDS`: a
  member's log density is c0 * basis0 + c1 * basis1 + c2 by elementwise
  products, and each point's weighted members are summed as one row, where
  a blocked BLAS matrix product formed them and a second one summed them;
  a default grid moves with the densities its placement reads;
- the 3 `ORACLE_CASES` summaries: the oracle's evidence and expected
  weights and means are `math.fsum` sums.

These 13 were re-pinned when every float sum of the weight path came to
follow one of two rules (per entry: added in sequence from +0.0, sorted
first where the components' terms meet; scalar: `families.fsum`, the
correctly rounded sum), and every other digest held:
- the `GOLDEN` log weights of `poisson-k8-n5` and `multinomial-k2-v9`: their
  8 component terms and 9 category terms are added in sequence, where
  numpy's pairwise row sum added them before (and the prior constant is the
  fsum of the components' log partitions);
- the `GOLDEN` summaries of those two, which follow their weights, and of
  `multinomial-nondyadic`, whose E[q] divides beta_u + S_u by the Dirichlet
  total sum(beta_u + S_u), where sum(beta) + sum(S) divided it before;
- `Q_DENSITIES["multinomial-nondyadic"]`: a q member's second Beta shape is
  taken from that same total;
- both `EXPLICIT_GRIDS`, which follow the weights of their cases;
- the five `ORACLE_DIGESTS["multinomial-nondyadic"]`: a Dirichlet log
  partition and sum(beta) are fsum sums, where `sum()` added in sequence,
  and each output reads one of them or the weights.

This one was re-pinned when the log evidence became max + log of the one
sum of exp(logw - max) that also divides the weights, as the oracle's, where
scipy's `logsumexp` formula counted the entries at the maximum apart, and
every other digest held:
- the `GOLDEN` summary of `multinomial-k2`, whose log evidence moved from
  -15.117891240816116 to -15.11789124081612 (its weights kept their bits).

These three were re-pinned when the lattice came to hold log h of the data
as an exact sum, which `log_base` rounds once, as `math.fsum` does, where
the fold added the terms in sequence in row order, and every other digest
held (log weights do not read log h):
- the `GOLDEN` dump of `poisson-k3-n16`, whose `logh=` header moved from
  -62.56163035511946 to -62.56163035511947, and its summary, whose log
  evidence moved from -42.02144091153808 to -42.021440911538086;
- the `DUMPS` dump of `object-multiplicities`, whose 70 terms are all -0.0:
  added in sequence they gave `logh=-0x0.0p+0`, and their exact sum is
  +0.0 (`0x0.0p+0`). A dump with the old header still loads.

These 4 were re-pinned when default grids came to run from the smallest
1e-8 quantile to the largest upper one, with the curvature probe and an
eighth of the cells even in the members' own coordinate (log t for a rate,
logit t for a probability), where the probe and the cells' floor were even
in t; every other digest held:
- `DEFAULT_GRIDS["worked-example", "lambda1"]` and `["poisson-k3-n16",
  "lambda1"]`: every member is finite at 0, so the grid started at the
  support edge 0.0; it now starts at the smallest 1e-8 quantile (2.5e-09 and
  5.0e-09), and its points move with the log-t probe;
- `DEFAULT_GRIDS["worked-example", "p1"]` and `["poisson-k3-n16", "p1"]`:
  their ends held, and their points move with the logit probe.
The default `q1,1` grid of `multinomial-k2` was pinned then: the ½
concentrations of its first component give members that diverge at q = 0,
and that grid integrated to 45,631 before, against 1 within 7e-6 now.

These 13 were re-pinned when the density closed forms and the grid
quantiles stopped calling `scipy.special` (log B, the Student-t constant
and the Gamma and Beta quantiles are in-package, on the in-package log
Gamma), and every other digest held:
- the 5 `DEFAULT_GRIDS`: their ends are the in-package 1e-8 and 1 - 1e-8
  quantiles (within a few ulps of scipy's), their probes are seeded with
  65 Laplace points of each member in its coordinate, where 65 exact
  quantiles seeded them, and the p and q densities carry the new log B;
- both `Q_DENSITIES` and `EXPLICIT_GRIDS["multinomial-k2-v9"]`: a q
  member's constant is -log B(a, b), now log Gamma(small) plus one
  Stirling difference for log Gamma(big) - log Gamma(big + small) once the
  larger shape reaches 13, and a log Gamma sum below, where scipy's
  Cephes `lbeta` formed small shapes from Gamma products (no value moved
  by more than 1e-14 relative);
- the `ORACLE_DIGESTS` "weight" of all three cases and "component" of
  `multinomial-nondyadic`, which read the same log B, and "component" of
  `normal-n4`, whose Student-t constant is log Gamma((df + 1) / 2) - log
  Gamma(df / 2), where it was the log of scipy's `poch`.

These 15 were re-pinned when the evidence total and every grid member's
weight became correctly rounded sums (`posterior._exact_sums`), grid
members came to be grouped by an integer key, and the oracle came to take
one `math.exp` of each shifted log weight and one `math.fsum` of them for
both its evidence and its weights; every log-weight and dump digest held:
- the `GOLDEN` summaries of `worked-example` and `multinomial-k2`: their
  weights are divided by the correctly rounded total, where numpy's
  pairwise sum divided them, so E_p1 of `worked-example` moved from
  0.6485753850390694 to 0.6485753850390695, and the log evidence of
  `multinomial-k2` from -15.11789124081612 to -15.117891240816116;
- the 5 `DEFAULT_GRIDS`, both `Q_DENSITIES` and both `EXPLICIT_GRIDS`: a
  member weighs the correctly rounded sum of its entries' weights, where
  a float sum in a canonical order weighed it (within 4.2e-16 relative;
  the members and their parameters held), and a default grid moves with
  the densities its placement reads; a q member's second shape is also
  (sum beta - beta_u) + (T - S_u), T the slot's integer total, where the
  per-entry Dirichlet total less beta_u + S_u gave it, which moves only
  the non-dyadic concentrations of `multinomial-nondyadic`;
- the `ORACLE_DIGESTS` "summary", "component" and "weight" of
  `worked-example` and "component" of `normal-n4`: their weights are
  libm's exp of each shifted log weight over the `math.fsum` of those,
  where numpy's exp over numpy's pairwise sum gave them (within 2.3e-16
  relative).

This one was re-pinned when `oracle.quadrature_evidence` came to integrate
by the in-package tanh-sinh rule (`oracle._tanh_sinh`), where
`scipy.integrate.quad` integrated, and every other pin held:
- `test_quadrature_evidence_is_bitwise_stable[poisson]`, whose evidence
  moved from -5.9070065152958655 to -5.907006515295864 (the closed form is
  -5.9070065152958655, 3.0e-16 relative away); the normal pin held.

These 7 were re-pinned when every expected weight and mean became the
correctly rounded sum of its products w_e * m_e (`posterior._exact_sums`,
taken a block of decoded keys at a time), where numpy's pairwise sum of one
whole column gave it; each m_e is formed as before, and every other digest
held (the moved values are within 5.3e-16 relative):
- the `GOLDEN` summary of `worked-example`, whose E_lambda1 moved from
  1.7275034247326158 to 1.727503424732616;
- of `poisson-k3-n16`, whose E_p2 and E_p3 moved from 0.33333333333333337
  to 0.3333333333333333, E_p1's value: its symmetric prior now gives
  bitwise equal means;
- of `multinomial-multiword`, whose E_q2,3 and E_q3,3 moved onto E_q1,3
  and E_q2,4 and E_q3,4 onto E_q1,4, for the same reason;
- of `multinomial-k2`, `multinomial-nondyadic`, `poisson-k8-n5` and
  `multinomial-k2-v9`, whose weights and means each moved by an ulp or two
  where they moved at all.

No digest depends on BLAS: not on its kernel, its thread count, the
array layout or the block shape (`test_digests_ignore_the_blas_kernel` runs
them in a child under another kernel and two threads). They do depend on
float64 `log` and `exp` returning the same bits, which holds for one numpy
build on one CPU family.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixexact import families, lattice, oracle, posterior
from mixexact.families import DirichletMultinomial, NormalInverseGamma, PoissonGamma
from mixexact.posterior import MixturePrior

# name: (data, prior, distinct entries, dump sha256, log-weight sha256, summary sha256)
GOLDEN = {
    "worked-example": (
        [0, 0, 0, 1, 2, 2, 4],
        MixturePrior((1.0, 1.0), (PoissonGamma(1.0, 1.0), PoissonGamma(1.0, 10.0))),
        42,
        "b0900b19b640d7753b50c7b42a0d80fa033d517c06b86fd09c1c31760358f196",
        "d22c7bcd07367939989f73edc15b9265e948ce573517754933882dd10b9fda53",
        "151d06e52780f2bf2ec144d917c2d6d225ae907cd8bc88d72ac1fe6fc84024cf",
    ),
    # datasets.poisson_mixture_sample(16, 0.5, 1.0, 6.0, 1): the size of the
    # fit-poisson-k3 benchmark input
    "poisson-k3-n16": (
        [4, 7, 2, 7, 2, 0, 8, 1, 6, 3, 8, 6, 1, 5, 1, 1],
        MixturePrior((1.0,) * 3, (PoissonGamma(1.0, 1.0),) * 3),
        49_719,
        "1f1a454c30cc9db4c1c78caf51d851c85756a8b62e3cd97033274cfc2df160c2",
        "5263957dcef70177940c5a4bd03fd6609deef3c1cdbad19dbceb3425f032f0f0",
        "eef71b212cc136e49929d9afa1428b0eff5044e1583d7622b0a20d99d8c17d08",
    ),
    "multinomial-k2": (
        [(2, 1, 0), (0, 1, 2), (1, 1, 1), (3, 0, 0), (0, 2, 1), (1, 0, 2)],
        MixturePrior(
            (1.0, 2.0), (DirichletMultinomial((0.5, 0.5, 0.5)), DirichletMultinomial((1.0, 2.0, 3.0)))
        ),
        54,
        "107d28fa7bd6a8afe1229db1a65b24a49b3fb0ec4b8a9063a2724197b324738e",
        "6b9cce002337b70067bfcfd817827a7c8f12bc5ae4d1f432d40308eb9e6081fe",
        "01f176f6a0146202463769021a22e5ab9d137c7f8a2172362c43b2260d54774a",
    ),
    # digits far above the entry count: multi-word codes, direct weight terms
    "multinomial-multiword": (
        [
            (70_000, 3_000, 90_000, 1_000),
            (2_000, 80_000, 500, 40_000),
            (65_000, 1, 0, 12_345),
            (3, 99_999, 7, 50_000),
            (31_000, 31_000, 31_000, 31_000),
        ],
        MixturePrior((1.0,) * 3, (DirichletMultinomial((1.0,) * 4),) * 3),
        243,
        "9dadb4b6bab728e52f787634a8bec13198db90dfdf1f45c405ce9f8e85461fc4",
        "e3cc4556aafd8b1ea85c997caf5b845c1319e235103bdf39ae776868375ce080",
        "7d809c50dc724d87a80dd9b620bfd7396d480cde98bc2d096d41561c9094dff2",
    ),
    # concentrations that are not dyadic fractions: a Beta member's second
    # shape is sum(beta) + sum(S), which a per-category sum would round apart
    "multinomial-nondyadic": (
        [(2, 1, 0), (0, 1, 2), (1, 1, 1), (3, 0, 0), (0, 2, 1), (1, 0, 2)],
        MixturePrior(
            (0.3, 2.7),
            (DirichletMultinomial((0.3, 0.7, 1.9)), DirichletMultinomial((2.1, 0.2, 0.55))),
        ),
        54,
        "107d28fa7bd6a8afe1229db1a65b24a49b3fb0ec4b8a9063a2724197b324738e",
        "6731f2f244063b129be7a912df96819707569e000f63245621c333da1570f2c1",
        "d34aff31dcf5ff98c9baae4350d02f17b429fa96f14542168cea5e6969dba988",
    ),
    # eight weight terms to an entry, sorted and added in sequence:
    # datasets.poisson_mixture_sample(5, 0.5, 1.0, 6.0, 11) under a prior
    # that is not label-symmetric
    "poisson-k8-n5": (
        [1, 0, 7, 1, 3],
        MixturePrior(
            tuple(0.5 + 0.25 * j for j in range(8)),
            tuple(PoissonGamma(1.0 + 0.5 * j, 1.0 + 0.3 * j) for j in range(8)),
        ),
        18_432,
        "700075cb0eec541746c8a5d425346bb106d6af8eeb729f803ceb52c4368f17a9",
        "14f1da57879aac474a9141ef9d1607a78ce3c91cc624a17cfe2a061bbf2d4ef2",
        "8e34b25e832cd1ebb466a4876f46e3a7ee9ee4b956958d4a2d6476c2ddaf5faf",
    ),
    # nine categories: each entry's category terms are added in sequence
    "multinomial-k2-v9": (
        [
            (1, 3, 3, 1, 0, 2, 2, 3, 2),
            (2, 3, 3, 3, 3, 2, 3, 0, 0),
            (3, 1, 2, 1, 3, 0, 2, 0, 0),
            (3, 1, 3, 1, 3, 3, 1, 3, 2),
            (3, 1, 2, 2, 3, 1, 1, 3, 3),
            (3, 0, 3, 0, 3, 3, 3, 3, 2),
            (2, 2, 0, 3, 3, 0, 2, 1, 2),
            (2, 2, 1, 0, 3, 3, 0, 1, 0),
        ],
        MixturePrior(
            (0.7, 1.3),
            (
                DirichletMultinomial(tuple(0.3 + 0.1 * u for u in range(9))),
                DirichletMultinomial(tuple(1.9 - 0.05 * u for u in range(9))),
            ),
        ),
        256,
        "fdecf0d9744f86d1b9da1539c0562a1b61851bf5b94196e9ef3c63fde23bde5e",
        "44780087665866bb452078622bcbd5a4028ccc375921ecebc482c9660bfe9e77",
        "59448246190c111dbcf5d662f4ace32cd95ea8c75ee04061e2721498fa6b609c",
    ),
}

# (name, param): sha256 of the default grid's bytes, then its density's
DEFAULT_GRIDS = {
    ("worked-example", "p1"): "5fc35eb023d30b9b8c052eeecc4de5ed6310d03132538c6c25562b3da61a9460",
    ("worked-example", "lambda1"): "922f65b67ffecb530e4055fc03a6d889d529ddc5c7bd7f74d4e4d75acfe16383",
    ("poisson-k3-n16", "p1"): "f6b0e1b080fc0121544a68c0b508116cbabf633aa422999212f1aafe66075aa7",
    ("poisson-k3-n16", "lambda1"): "19d33203b534c9a65874fb8790ed2db376cdc864180f08c6c604679d7582d798",
    # Beta members of shape 1/2 that diverge at q = 0
    ("multinomial-k2", "q1,1"): "a18489e226b9f2c131dfeb9ecdf58eef70b229591fe538959390c861d131eaef",
}

# name: sha256 of every q<j>,<u> density on INTERIOR, j then u ascending
INTERIOR = np.linspace(0.05, 0.95, 19)
Q_DENSITIES = {
    "multinomial-k2": "775c40a8e7cc694072ffabe893bb4836cc32d39515c9b01b61b1b11f7428fbbf",
    "multinomial-nondyadic": "63c6bfbf1246ef20099f6f0b0d752f7cb6a9b09f4731cc8a6829635a8dec8f9a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_dump_and_log_weights_are_bitwise_stable(name):
    data, prior, distinct, dump_digest, weight_digest, _ = GOLDEN[name]
    lat = lattice.build(data, prior.k)
    assert lat.distinct_count() == distinct
    assert _sha256(lattice.dump(lat).encode()) == dump_digest
    assert _sha256(posterior.normalize(lat, prior).log_weights.tobytes()) == weight_digest


# dumps the benchmark never writes, taken before dump became a byte writer:
# name: (data, k, distinct entries, dump sha256)
DUMPS = {
    "object-multiplicities": ([0] * 70, 2, 71, "15842855d4ca3b54649618f6946590780c58fda2c4c5994a5ca2a259bc4d6baf"),
    "beyond-float-range": (
        [0] * 1100 + [3],
        2,
        2202,
        "51108db2d4ff2fa6077e1428d57a27b02a9eb1ec0544cd3ca9ac4598f6a17fab",
    ),
    "k1": ([3, 4, 5], 1, 1, "f92e746e8f709221180986a709eb91d550d67190ec4ca30b877bf25dd61680f1"),
    # digits above the row count: divmod planes instead of the digit table
    "direct-digits": ([2**60, 2**60], 2, 3, "74239740480b68757a5c383b1e0efa775fbb1eed785591e6178cda3c2f1f2631"),
}


@pytest.mark.parametrize("name", list(DUMPS))
def test_dumps_off_the_benchmark_are_bitwise_stable(name):
    data, k, distinct, digest = DUMPS[name]
    lat = lattice.build(data, k)
    assert lat.distinct_count() == distinct
    assert _sha256(lattice.dump(lat).encode()) == digest


# blocks of 1, 3 and 4 lines on every dump of at most 2,202 lines, which
# covers every regime; the two largest (49,719 and 18,432 lines) in 401
# blocks each, the last one ragged
_LARGE_DUMP_ROWS = {"poisson-k3-n16": 124, "poisson-k8-n5": 46}
_BLOCK_CASES = [
    *((name, rows) for name in [*GOLDEN, *DUMPS] if name not in _LARGE_DUMP_ROWS for rows in (1, 3, 4)),
    *_LARGE_DUMP_ROWS.items(),
]


@pytest.mark.parametrize("name, rows", _BLOCK_CASES)
def test_dumps_load_alike_in_small_blocks(name, rows, monkeypatch):
    """load in blocks of a few lines reads every golden dump back exactly."""
    if name in GOLDEN:
        data, prior, _, digest, *_ = GOLDEN[name]
        k = prior.k
    else:
        data, k, _, digest = DUMPS[name]
    lat = lattice.build(data, k)
    if name in _LARGE_DUMP_ROWS:
        entries = lat.distinct_count()
        assert -(-entries // rows) >= 400 and entries % rows
    text = lattice.dump(lat)
    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_BLOCK_ROWS", rows)
        loaded = lattice.load(text)
    assert np.array_equal(loaded.key_array, lat.key_array)
    assert loaded.mult_array.dtype == lat.mult_array.dtype
    assert loaded.mult_array.tolist() == lat.mult_array.tolist()
    assert _sha256(lattice.dump(loaded).encode()) == digest


def _posterior(name: str) -> posterior.WeightedPosterior:
    data, prior, *_ = GOLDEN[name]
    return posterior.normalize(lattice.build(data, prior.k), prior)


def _summary_digest(name: str) -> str:
    return _sha256(posterior.summarize(_posterior(name)).to_text().encode())


def _default_grid_digest(name: str, param: str) -> str:
    wp = _posterior(name)
    if param == "p1":
        g = posterior.marginal_weight_density(wp, 0)
    else:  # lambda1, or q1,1
        g = posterior.marginal_component_density(wp, 0, category=0 if param == "q1,1" else None)
    return _sha256(g.grid.tobytes() + g.density.tobytes())


def _q_digest(name: str) -> str:
    wp = _posterior(name)
    v = wp.slot_width - 1
    densities = [
        posterior.marginal_component_density(wp, j, INTERIOR, category=u).density.tobytes()
        for j in range(wp.k)
        for u in range(v)
    ]
    return _sha256(b"".join(densities))


@pytest.mark.parametrize("name", list(GOLDEN))
def test_summaries_are_bitwise_stable(name):
    assert _summary_digest(name) == GOLDEN[name][-1]


@pytest.mark.parametrize("name, param", list(DEFAULT_GRIDS))
def test_default_grids_are_bitwise_stable(name, param):
    assert _default_grid_digest(name, param) == DEFAULT_GRIDS[name, param]


@pytest.mark.parametrize("name", list(Q_DENSITIES))
def test_q_densities_are_bitwise_stable(name):
    assert _q_digest(name) == Q_DENSITIES[name]


# name: (explicit grid, category), then the sha256 of the component-1
# density on it: lambda1, or q1,1 with a category
EXPLICIT_GRIDS = {
    "poisson-k8-n5": (
        np.linspace(0.05, 10.0, 41),
        None,
        "ae701b772852eab9522aca073044a6b542fca5f5db7ce2a384ee26d804d71a80",
    ),
    "multinomial-k2-v9": (
        INTERIOR,
        0,
        "9e395149155abd9f6c63371f4ae53ec8577bd8481ef5f89efa45b5dc1bec11ce",
    ),
}


def _explicit_grid_digest(name: str) -> str:
    grid, category, _ = EXPLICIT_GRIDS[name]
    g = posterior.marginal_component_density(_posterior(name), 0, grid, category=category)
    return _sha256(g.density.tobytes())


@pytest.mark.parametrize("name", list(EXPLICIT_GRIDS))
def test_explicit_grid_densities_are_bitwise_stable(name):
    assert _explicit_grid_digest(name) == EXPLICIT_GRIDS[name][-1]


def _posterior_digests() -> dict[str, str]:
    """The digest of every summary and density grid pinned above, by name."""
    return {
        **{f"summary {name}": _summary_digest(name) for name in GOLDEN},
        # ("poisson-k3-n16", "lambda1") is the grid of `mixexact marginal
        # --synthetic "mixture:n=16,weight=0.5,rate1=1,rate2=6" --seed 1
        # --family poisson --k 3 --param lambda1`
        **{f"grid {name} {param}": _default_grid_digest(name, param) for name, param in DEFAULT_GRIDS},
        **{f"q {name}": _q_digest(name) for name in Q_DENSITIES},
        **{f"explicit {name}": _explicit_grid_digest(name) for name in EXPLICIT_GRIDS},
    }


def test_digests_ignore_the_blas_kernel():
    # OPENBLAS_CORETYPE picks the kernel only in a DYNAMIC_ARCH OpenBLAS build,
    # as numpy's wheels are; elsewhere the child runs the host's own kernel,
    # and only the thread count differs from this process
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(lattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Sandybridge", "OPENBLAS_NUM_THREADS": "2"}
    code = "import json, test_golden; print(json.dumps(test_golden._posterior_digests()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == _posterior_digests()


def test_worked_example_evidence():
    data, prior, *_ = GOLDEN["worked-example"]
    assert repr(posterior.log_evidence(lattice.build(data, 2), prior)) == "-12.490069462412716"


# name: (data, prior, component-density grid, category), then the sha256 of
# each oracle output
ORACLE_CASES = {
    "worked-example": (*GOLDEN["worked-example"][:2], np.linspace(0.0, 6.0, 61), None),
    "multinomial-nondyadic": (*GOLDEN["multinomial-nondyadic"][:2], INTERIOR, 1),
    "normal-n4": (
        [-1.2, 0.3, 0.9, 2.5],
        MixturePrior(
            (1.0, 2.0), (NormalInverseGamma(0.0, 1.0, 3.0, 2.0), NormalInverseGamma(1.0, 0.5, 4.0, 3.0))
        ),
        np.linspace(-3.0, 4.0, 57),
        None,
    ),
}
ORACLE_DIGESTS = {
    "worked-example": {
        "log_weights": "8ae573d2925140b7977eb0953d1c4562c401ea5ab6eec07366e5b24cc48f95cf",
        "summary": "4be0b3fa9dd7c5e831dce3f866d63404ee7039473fce00443250eef9bfbfcb8f",
        "component": "88a682aa6b0ab6997439f7ded4a4ae9dbdae9c71baed09c638021ebfcbddeb76",
        "weight": "09164b1f15767b6e515a7d4f4688fc3ba0592e61268212ec5f6c2494ae520e78",
        "table": "023bdde4508acd32180afc96f73e06f695d414e5a30abd039d7dc26fb025a6cd",
    },
    "multinomial-nondyadic": {
        "log_weights": "61e5637d1007679b827b23e73d764b4dbad78e31548eae8e018eded5d830c65d",
        "summary": "a163c227102e7269b586151be4d18054bb6e998e8e469b1efaa2e85923f11195",
        "component": "a892d9c1e52855024e2a5c19f7ef7f95bf1ec11dc212b53f63cc2a99e1514604",
        "weight": "9c19db6328b4d473c3d37f9977e4a89251d4b5eace6f4d28db03bb3598deb2ee",
        "table": "18a63779a08cf8ea7e0dcbfd4fbb1e0d9bd112eba7f43a563af451440a5b3fd6",
    },
    "normal-n4": {
        "log_weights": "6898cfe70c4c6b4b00f7465d1ce1acc5b465d98321aa3185ff4bc652bd3e4edb",
        "summary": "358f536e785e122034f0fe6af3b9d4eba058d5064bd21564425ca2be19567161",
        "component": "4f8e4c54deb57e6d4a67801a365c46ba28c506d50dd84c58157140b134d3597a",
        "weight": "f97822dadaac19789d80da8633a83af3177b87536c3b2fe5580f1a25e184d9e4",
        "table": "8cdb4bfdecfc7da0bdc9b0cd65bea3954cc0d80e5330765ea1448c4b65503b29",
    },
}


def _oracle_digests(name: str) -> dict[str, str]:
    data, prior, grid, category = ORACLE_CASES[name]
    result = oracle.oracle_posterior(data, prior)
    outputs = {
        "log_weights": result.log_weights.tobytes(),
        "summary": result.summary().to_text().encode(),
        # lambda1, q1,2 or mu1
        "component": result.component_density(0, grid, category=category).density.tobytes(),
        "weight": result.weight_density(0, INTERIOR).density.tobytes(),
        "table": oracle.weight_table_csv(data, prior).encode(),
    }
    return {key: _sha256(value) for key, value in outputs.items()}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_oracle_outputs_are_bitwise_stable(name):
    assert _oracle_digests(name) == ORACLE_DIGESTS[name]


@pytest.mark.parametrize(
    "data, prior, expected",
    [
        ([0, 1, 3], GOLDEN["worked-example"][1], "-5.907006515295864"),
        (*ORACLE_CASES["normal-n4"][:2], "-8.12473106295333"),
    ],
    ids=["poisson", "normal"],
)
def test_quadrature_evidence_is_bitwise_stable(data, prior, expected):
    assert repr(oracle.quadrature_evidence(data, prior)) == expected


# the rows, prior and evidence that CI pins on the installed `mixexact evidence`:
# three non-dyadic concentrations to a sum, in the weights and in the constant
CI_ROWS = [(3, 9, 8, 2), (0, 4, 1, 7), (5, 5, 0, 2), (1, 0, 9, 3)]
CI_PRIOR = MixturePrior(
    (0.1, 0.45, 1.7),
    (
        DirichletMultinomial((0.3, 0.7, 1.3, 2.5)),
        DirichletMultinomial((1.7, 2.5, 3.1, 0.45)),
        DirichletMultinomial((0.1, 0.3, 0.7, 1.3)),
    ),
)
CI_EVIDENCE = "-32.63211129693317"


def test_ci_multinomial_evidence():
    assert repr(posterior.log_evidence(lattice.build(CI_ROWS, 3), CI_PRIOR)) == CI_EVIDENCE


def _sum_312(iterable, /, start=0):
    """CPython 3.12's built-in `sum`, on any interpreter.

    Ints add exactly while the total and the term fit a C long. Once the
    total is a float, each float term adds with a Neumaier compensation
    that joins the total at the end, an int that fits a C long adds as a
    double, and a term of any other type ends the compensated loop: it and
    every term after it add plainly. Before 3.12 every term added plainly.
    """
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) in (int, bool) and all(-(2**63) <= v < 2**63 for v in (item, total + item)):
                total += item
                continue
            total = total + item
            break
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                compensation += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif type(item) in (int, bool) and -(2**63) <= item < 2**63:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                compensation = 0.0
                total = total + item
                break
        if compensation and math.isfinite(compensation):
            total += compensation
    for item in items:
        total = total + item
    return total


def test_sum_312_compensates():
    assert _sum_312([0.1] * 10) == 1.0
    assert _sum_312([1e100, 1.0, -1e100]) == 1.0
    assert _sum_312([2**63, 1.5]) == 2**63 + 1.5 and _sum_312([1, 2, 3]) == 6
    # numpy floats are not exact floats: they add in sequence
    assert _sum_312(np.full(10, 0.1)) == 0.9999999999999999


def test_digests_ignore_python_3_12s_sum(monkeypatch):
    # CPython 3.12 made the built-in sum of floats compensated; every float
    # sum of the weight path is families.fsum or a numpy sum, so no digest
    # moves when the modules' `sum` is 3.12's
    for module in (families, posterior, oracle):
        monkeypatch.setattr(module, "sum", _sum_312, raising=False)
    for name, (data, prior, _, dump_digest, weight_digest, _) in GOLDEN.items():
        lat = lattice.build(data, prior.k)
        assert _sha256(lattice.dump(lat).encode()) == dump_digest, name
        assert _sha256(posterior.normalize(lat, prior).log_weights.tobytes()) == weight_digest, name
    assert _posterior_digests() == {
        **{f"summary {name}": case[-1] for name, case in GOLDEN.items()},
        **{f"grid {name} {param}": digest for (name, param), digest in DEFAULT_GRIDS.items()},
        **{f"q {name}": digest for name, digest in Q_DENSITIES.items()},
        **{f"explicit {name}": case[-1] for name, case in EXPLICIT_GRIDS.items()},
    }
    assert {name: _oracle_digests(name) for name in ORACLE_CASES} == ORACLE_DIGESTS
    assert repr(posterior.log_evidence(lattice.build(CI_ROWS, 3), CI_PRIOR)) == CI_EVIDENCE


# the references below take the engine's own doubles and sum them exactly
# (math.fsum), so they check the summation alone


@pytest.mark.parametrize("name", list(GOLDEN))
def test_summaries_are_the_exact_sums_of_their_products(name):
    # every expected weight and mean is the correctly rounded sum of its
    # products w_e * m_e
    wp = _posterior(name)
    text = posterior.summarize(wp).to_text()
    shown = dict(line[2:].split("=") for line in text.splitlines() if line.startswith("E_"))
    keys, w = wp.key_array, wp.slot_width
    alpha = np.asarray(wp.prior.alpha)
    means = {f"p{j + 1}": (keys[:, j * w] + alpha[j]) / (wp.n + alpha.sum()) for j in range(wp.k)}
    for j, comp in enumerate(wp.prior.components):
        if wp.family == "poisson":
            means[f"lambda{j + 1}"] = (keys[:, j * w + 1] + comp.shape) / (keys[:, j * w] + comp.rate)
        else:
            aggregates = np.ascontiguousarray(keys[:, j * w + 1 : (j + 1) * w])
            total = sum(aggregates[:, u] + b for u, b in enumerate(comp.concentration))
            for u, b in enumerate(comp.concentration):
                means[f"q{j + 1},{u + 1}"] = (aggregates[:, u] + b) / total
    assert sorted(means) == sorted(shown)
    for label, m in means.items():
        assert float(shown[label]) == math.fsum((wp.weights * m).tolist()), label


# (name, param, points): a component-1 or p1 density and five points of its
# grid, the default one for p1 and lambda1, INTERIOR for q1,1
DENSITY_REFERENCES = [
    *(
        (name, param, np.linspace(1, posterior.DEFAULT_GRID_POINTS - 2, 5).astype(int))
        for name, param in DEFAULT_GRIDS
        if param != "q1,1"
    ),
    *((name, "q1,1", [0, 4, 9, 14, 18]) for name in Q_DENSITIES),
]


@pytest.mark.parametrize("name, param, points", DENSITY_REFERENCES)
def test_densities_are_the_exact_sums_of_their_members(name, param, points):
    wp = _posterior(name)
    if param == "p1":
        members = posterior._weight_members(wp, 0)
        g = posterior.marginal_weight_density(wp, 0)
    elif param == "lambda1":
        members, _ = posterior._component_members(wp, 0, None)
        g = posterior.marginal_component_density(wp, 0)
    else:
        members, _ = posterior._component_members(wp, 0, 0)
        g = posterior.marginal_component_density(wp, 0, INTERIOR, category=0)
    t = g.grid[points]
    x0, x1 = members.basis(t)
    c0, c1, c2 = members.coef
    terms = members.weights * np.exp(x0[:, None] * c0 + x1[:, None] * c1 + c2)
    for density, row in zip(g.density[points], terms.tolist()):
        exact = math.fsum(row)
        assert abs(density - exact) <= 1e-13 * exact


@pytest.mark.parametrize("elements", [1, 2**12])
def test_densities_ignore_the_block_size(elements, monkeypatch):
    # a block of one point, and blocks of a few points: each point's members
    # are summed as one row whatever the block holds
    monkeypatch.setattr(posterior, "_DENSITY_BLOCK_ELEMENTS", elements)
    assert _default_grid_digest("poisson-k3-n16", "lambda1") == DEFAULT_GRIDS["poisson-k3-n16", "lambda1"]
    assert _q_digest("multinomial-k2") == Q_DENSITIES["multinomial-k2"]


# blocks of 1, 3 and the default rows, the two largest cases in 401 blocks
# and the default rows
_POSTERIOR_BLOCK_CASES = [
    (name, rows)
    for name in GOLDEN
    for rows in ((_LARGE_DUMP_ROWS[name],) if name in _LARGE_DUMP_ROWS else (1, 3)) + (lattice._BLOCK_ROWS,)
]


@pytest.mark.parametrize("name, rows", _POSTERIOR_BLOCK_CASES)
def test_posteriors_ignore_the_block_size(name, rows, monkeypatch):
    # the density blocks above, and the lattice's: dump, the log weights, the
    # summary and the grid members read the codes a block of `rows` entries
    # at a time, and every digest holds
    data, prior, _, dump_digest, weight_digest, summary_digest = GOLDEN[name]
    monkeypatch.setattr(lattice, "_BLOCK_ROWS", rows)
    lat = lattice.build(data, prior.k)
    wp = posterior.normalize(lat, prior)
    assert _sha256(lattice.dump(lat).encode()) == dump_digest
    assert _sha256(wp.log_weights.tobytes()) == weight_digest
    assert _sha256(posterior.summarize(wp).to_text().encode()) == summary_digest
    for param in (param for grid, param in DEFAULT_GRIDS if grid == name):
        assert _default_grid_digest(name, param) == DEFAULT_GRIDS[name, param]
    if name in Q_DENSITIES:
        assert _q_digest(name) == Q_DENSITIES[name]
    if name in EXPLICIT_GRIDS:
        assert _explicit_grid_digest(name) == EXPLICIT_GRIDS[name][-1]
