"""Golden digests of lattice dumps, log weights, summaries and density grids.

The dump and log-weight digests were taken from the engine before the
packed-code fold and the digit-table weights replaced the per-step gather
and the direct log-gamma calls; the summary and grid digests before the
posterior read the int64 key columns in place instead of a float copy; the
oracle digests before the scalar weight moved into the oracle and the
conjugate classes gave their density methods up for free closed forms; the
digests of `DUMPS` before `dump` wrote bytes instead of a `%`-format; the
digests of the cases with eight or more terms to a sum (`poisson-k8-n5`,
`multinomial-k2-v9`) before numpy's own row sort and row sum replaced a
compare-exchange network and a hand copy of numpy's pairwise sum there. So
these tests hold the code to bitwise equal output. The digests depend on
float64 `log`, `exp` and the `scipy.special` functions returning the same
bits, which holds for one numpy/scipy build on one CPU family.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from mixexact import lattice, oracle, posterior
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
        "74d1382f0ee1f30bd00e940708fa82073df15775ab9cf3bc234e20b3133a6d23",
    ),
    # datasets.poisson_mixture_sample(16, 0.5, 1.0, 6.0, 1): the size of the
    # fit-poisson-k3 benchmark input
    "poisson-k3-n16": (
        [4, 7, 2, 7, 2, 0, 8, 1, 6, 3, 8, 6, 1, 5, 1, 1],
        MixturePrior((1.0,) * 3, (PoissonGamma(1.0, 1.0),) * 3),
        49_719,
        "a201063de6ef6aac42540529b53fcd07bc580a50bf57b975048ff8f7c7a8e8cd",
        "5263957dcef70177940c5a4bd03fd6609deef3c1cdbad19dbceb3425f032f0f0",
        "d5c0b81dc88c7a2fde0f970a42183b164ba4c8bc7efa4d0c0d334f21dabb5860",
    ),
    "multinomial-k2": (
        [(2, 1, 0), (0, 1, 2), (1, 1, 1), (3, 0, 0), (0, 2, 1), (1, 0, 2)],
        MixturePrior(
            (1.0, 2.0), (DirichletMultinomial((0.5, 0.5, 0.5)), DirichletMultinomial((1.0, 2.0, 3.0)))
        ),
        54,
        "107d28fa7bd6a8afe1229db1a65b24a49b3fb0ec4b8a9063a2724197b324738e",
        "6b9cce002337b70067bfcfd817827a7c8f12bc5ae4d1f432d40308eb9e6081fe",
        "1f6c0fecf3db6caefc4169650cddd9860393a918e13ac79b36b695f5af721929",
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
        "76c6b2901c6fe5caa9f3b2c9c205eae6efd2db58cff33fa308b72bd58c6a88b6",
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
        "cc7b35277831412e5d3d1e551111d105d44c49d6dc01a1dc0a2cc74f9b12583a",
    ),
    # eight weight terms to an entry, the sorted sums numpy's own:
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
        "31c0c74b4de21f5d5af393f12c893fd3aca3a3d2bd667b1097523485e2c045ae",
        "f493c0ba695a9af133bb76e0a881547af4df28a00961e4c997b22d03758f5f63",
    ),
    # nine categories: numpy sums each entry's category terms pairwise
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
        "e2dd1333019891374f993bff4ba5423ce28ba75038af1e2aea64d97b12f529c7",
        "cf6ee07a5e46428744487603b2b4697ba7ac9da380409e959c33b167f4b708ff",
    ),
}

# (name, param): sha256 of the default grid's bytes, then its density's
DEFAULT_GRIDS = {
    ("worked-example", "p1"): "cf85616671b58a75065e01556041a89cf34df6103d4e370aedb66b6cb1b4b25c",
    ("worked-example", "lambda1"): "774a2ef0ccc5266be1695257473c4196c8c5309a397ecc7b8fdd62e0219df47f",
    ("poisson-k3-n16", "p1"): "43d4bbf5fdfd38c13b8d24541b2d9b51941038d034bf9e1984751fda6501c351",
    ("poisson-k3-n16", "lambda1"): "9da357600657692b3f56c01d4eb53c33dd4a5a8e8f2a4df3adeee85166ee8d8d",
}

# name: sha256 of every q<j>,<u> density on INTERIOR, j then u ascending. The
# default q grids are left out: under concentrations below 1 they do not
# integrate to 1 (README, Known limitations), and a digest would pin that.
INTERIOR = np.linspace(0.05, 0.95, 19)
Q_DENSITIES = {
    "multinomial-k2": "6ff3a9f0c3ce9bb9ddb68dadf810c1edda7a006b8400cd404963c8745c150acc",
    "multinomial-nondyadic": "fe1aa2a2dd821cd2a9eb086c3b40dc705713657ae2187143b2888834eaedf056",
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


@pytest.mark.parametrize("name", list(GOLDEN))
def test_summaries_are_bitwise_stable(name):
    summary = posterior.summarize(_posterior(name)).to_text()
    assert _sha256(summary.encode()) == GOLDEN[name][-1]


@pytest.mark.parametrize("name, param", list(DEFAULT_GRIDS))
def test_default_grids_are_bitwise_stable(name, param):
    wp = _posterior(name)
    if param == "p1":
        g = posterior.marginal_weight_density(wp, 0)
    else:
        g = posterior.marginal_component_density(wp, 0)
    assert _sha256(g.grid.tobytes() + g.density.tobytes()) == DEFAULT_GRIDS[name, param]


@pytest.mark.parametrize("name", list(Q_DENSITIES))
def test_q_densities_are_bitwise_stable(name):
    wp = _posterior(name)
    v = wp.slot_width - 1
    densities = [
        posterior.marginal_component_density(wp, j, INTERIOR, category=u).density.tobytes()
        for j in range(wp.k)
        for u in range(v)
    ]
    assert _sha256(b"".join(densities)) == Q_DENSITIES[name]


# name: (explicit grid, category), then the sha256 of the component-1
# density on it: lambda1, or q1,1 with a category
EXPLICIT_GRIDS = {
    "poisson-k8-n5": (
        np.linspace(0.05, 10.0, 41),
        None,
        "77d43449ccdd438fd328735a1adee33f03af1ca8e9e266ae171c7064994b156c",
    ),
    "multinomial-k2-v9": (
        INTERIOR,
        0,
        "e41fa254b1a7167f438ec199cf3ddff684ce07830a02a6547d8626643288eddb",
    ),
}


@pytest.mark.parametrize("name", list(EXPLICIT_GRIDS))
def test_explicit_grid_densities_are_bitwise_stable(name):
    grid, category, digest = EXPLICIT_GRIDS[name]
    g = posterior.marginal_component_density(_posterior(name), 0, grid, category=category)
    assert _sha256(g.density.tobytes()) == digest


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
        "summary": "00660317fe0dc0ff68dfa948579222ecf7bed286e22a0b9179e0ed0bb0168c67",
        "component": "fa5fc8016dfa1b284b5db0df78d9d6f80229c8b29ae0a68e7364cd77777508a8",
        "weight": "ab39ce332e63e270c04dda4f9cdf256d1bad4b35624abadda9bab5c9853a8eb0",
        "table": "023bdde4508acd32180afc96f73e06f695d414e5a30abd039d7dc26fb025a6cd",
    },
    "multinomial-nondyadic": {
        "log_weights": "61e122b602839e5b611f5f985b43826d260f7e8e65365560994b964de79c926c",
        "summary": "0a33d47b26362eb31aa09382b52c744dc268e73ee7acac112090432f4d811530",
        "component": "f1c3e17ee920ceabf5ff70b17b453b74d95d6dfd9e661f41f14b34b08cf356ae",
        "weight": "409a421533c24b389aa7e117d6f801e8f11bb0ea7cca70f776192cc763b04369",
        "table": "7b5c9888235ece69cdcb606c8607db753fe4063e9df88176da8e39306c527e18",
    },
    "normal-n4": {
        "log_weights": "6898cfe70c4c6b4b00f7465d1ce1acc5b465d98321aa3185ff4bc652bd3e4edb",
        "summary": "5a9ebf6143261af8616f5d95f86a4c17d5958407b8ac67b69e0528e3dbebcfd1",
        "component": "d1f1ecb8d617947ef87b1405bebebc6455a2baeb16981bcb0a74c8a8a30a393b",
        "weight": "a04edab3783e2d6ba0699b515f4c87dc04e57037451fffae3a3b38eef8c95a2c",
        "table": "8cdb4bfdecfc7da0bdc9b0cd65bea3954cc0d80e5330765ea1448c4b65503b29",
    },
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_oracle_outputs_are_bitwise_stable(name):
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
    assert {key: _sha256(value) for key, value in outputs.items()} == ORACLE_DIGESTS[name]


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
