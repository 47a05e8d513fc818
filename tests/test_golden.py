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

No digest depends on BLAS: not on its kernel, its thread count, the
array layout or the block shape (`test_digests_ignore_the_blas_kernel` runs
them in a child under another kernel and two threads). They do depend on
float64 `log`, `exp` and the `scipy.special` functions returning the same
bits, which holds for one numpy/scipy build on one CPU family.
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
        "97f2a0ea4cd1fec048d167a63881561f22b822520ddb00bba369e7476c33d587",
    ),
    # datasets.poisson_mixture_sample(16, 0.5, 1.0, 6.0, 1): the size of the
    # fit-poisson-k3 benchmark input
    "poisson-k3-n16": (
        [4, 7, 2, 7, 2, 0, 8, 1, 6, 3, 8, 6, 1, 5, 1, 1],
        MixturePrior((1.0,) * 3, (PoissonGamma(1.0, 1.0),) * 3),
        49_719,
        "a201063de6ef6aac42540529b53fcd07bc580a50bf57b975048ff8f7c7a8e8cd",
        "5263957dcef70177940c5a4bd03fd6609deef3c1cdbad19dbceb3425f032f0f0",
        "1b70d5259423fbec024c2c15289e3d90af946d8837d8feca1edc8ad03a3caecb",
    ),
    "multinomial-k2": (
        [(2, 1, 0), (0, 1, 2), (1, 1, 1), (3, 0, 0), (0, 2, 1), (1, 0, 2)],
        MixturePrior(
            (1.0, 2.0), (DirichletMultinomial((0.5, 0.5, 0.5)), DirichletMultinomial((1.0, 2.0, 3.0)))
        ),
        54,
        "107d28fa7bd6a8afe1229db1a65b24a49b3fb0ec4b8a9063a2724197b324738e",
        "6b9cce002337b70067bfcfd817827a7c8f12bc5ae4d1f432d40308eb9e6081fe",
        "9e075d74b54fa6c561a29ae1f5dfafbd255ad2a3db1a25e0646391f254d356d0",
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
        "b3cf2cc9a76b0546449850ab7f2f4e3bc0efe620988a177332db57e1a5fd925d",
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
        "eabba66b6d3db1b0587043e6137d4031e4a41f596de087203b17646619151a5c",
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
        "d3a8135a3ac0b0bb6b81f7ddf7ff985eb8f49ffa9291b003166937e9bbd4597c",
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
        "26188d9be694c096962c7e4c789f96a828e79319653bc2c71e9ae26e76aa50b0",
    ),
}

# (name, param): sha256 of the default grid's bytes, then its density's
DEFAULT_GRIDS = {
    ("worked-example", "p1"): "7d1a51f3b4571fc3c21e5b4ed677ec6b7d7ff1973c2567f6d81bb7c81203b7f8",
    ("worked-example", "lambda1"): "1ac5b03440ca85b9c50ab84d2d562ddaa5d0943218d3ffe4f9e78b7205bcc889",
    ("poisson-k3-n16", "p1"): "19293587595609ff7d42217353cd6c180eaa1ea423a542e56ad766e46330f8c0",
    ("poisson-k3-n16", "lambda1"): "b4f96416fe937bb664848aa27eb270d51b6b1fd66e5b28da78f6d53012abb606",
}

# name: sha256 of every q<j>,<u> density on INTERIOR, j then u ascending. The
# default q grids are left out: under concentrations below 1 they do not
# integrate to 1 (README, Known limitations), and a digest would pin that.
INTERIOR = np.linspace(0.05, 0.95, 19)
Q_DENSITIES = {
    "multinomial-k2": "41f5871f12c6a8e93679f5def3e9d734bbaddc52945442280ed82a24c09e9ad1",
    "multinomial-nondyadic": "e76360e72c476a3b2eb1ce3c65d41363eb1b625f4ab80d5b04ec8b8103c6c774",
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
    "object-multiplicities": ([0] * 70, 2, 71, "075e68fc854f3df3625e5a792834970c187a2f9ae6e509fbbc556ad173e4e07f"),
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


@pytest.mark.parametrize("rows", [1, 3, 4])
@pytest.mark.parametrize("name", [*GOLDEN, *DUMPS])
def test_dumps_load_alike_in_small_blocks(name, rows, monkeypatch):
    """load in blocks of a few lines reads every golden dump back exactly."""
    if name in GOLDEN:
        data, prior, _, digest, *_ = GOLDEN[name]
        k = prior.k
    else:
        data, k, _, digest = DUMPS[name]
    lat = lattice.build(data, k)
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
    else:
        g = posterior.marginal_component_density(wp, 0)
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
        "4e33fde910f8ab874bcfd92a8cdda4732caa2daee2e049cbe8a9e35d36cb88d2",
    ),
    "multinomial-k2-v9": (
        INTERIOR,
        0,
        "13ddee50d1715e69e7a8d734cb7902590bc8492192782a9fda645bbe1d59da61",
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
        "summary": "7893305035da5a8d56acb0e114eb66317ebd5b99de556e9575acd6c4cd994ce1",
        "component": "fa5fc8016dfa1b284b5db0df78d9d6f80229c8b29ae0a68e7364cd77777508a8",
        "weight": "ab39ce332e63e270c04dda4f9cdf256d1bad4b35624abadda9bab5c9853a8eb0",
        "table": "023bdde4508acd32180afc96f73e06f695d414e5a30abd039d7dc26fb025a6cd",
    },
    "multinomial-nondyadic": {
        "log_weights": "61e5637d1007679b827b23e73d764b4dbad78e31548eae8e018eded5d830c65d",
        "summary": "a163c227102e7269b586151be4d18054bb6e998e8e469b1efaa2e85923f11195",
        "component": "bfd336741213ea38b86ec10a33bf26f7d053ab4341b49dd5ee5ee58e9d25b4a0",
        "weight": "4800414f62c6be7ae79c7af07eeeef94c4bdb17f2850d7e3b694044d0a860e0d",
        "table": "18a63779a08cf8ea7e0dcbfd4fbb1e0d9bd112eba7f43a563af451440a5b3fd6",
    },
    "normal-n4": {
        "log_weights": "6898cfe70c4c6b4b00f7465d1ce1acc5b465d98321aa3185ff4bc652bd3e4edb",
        "summary": "358f536e785e122034f0fe6af3b9d4eba058d5064bd21564425ca2be19567161",
        "component": "d1f1ecb8d617947ef87b1405bebebc6455a2baeb16981bcb0a74c8a8a30a393b",
        "weight": "a04edab3783e2d6ba0699b515f4c87dc04e57037451fffae3a3b38eef8c95a2c",
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
        ([0, 1, 3], GOLDEN["worked-example"][1], "-5.9070065152958655"),
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
    # every expected weight and mean is within 1e-13 of the correctly rounded
    # sum of its products w_e * m_e
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
        exact = math.fsum((wp.weights * m).tolist())
        assert abs(float(shown[label]) - exact) <= 1e-13 * abs(exact), label


# (name, param, points): a component-1 or p1 density and five points of its grid
DENSITY_REFERENCES = [
    *((name, param, np.linspace(1, posterior.DEFAULT_GRID_POINTS - 2, 5).astype(int)) for name, param in DEFAULT_GRIDS),
    *((name, "q1,1", [0, 4, 9, 14, 18]) for name in Q_DENSITIES),
]


@pytest.mark.parametrize("name, param, points", DENSITY_REFERENCES)
def test_densities_are_the_exact_sums_of_their_members(name, param, points):
    wp = _posterior(name)
    if param == "p1":
        counts, alpha = wp.key_array[:, 0], np.asarray(wp.prior.alpha)
        members = posterior._BetaMembers(counts + alpha[0], wp.n - counts + alpha.sum() - alpha[0], wp.weights)
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
