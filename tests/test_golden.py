"""Golden digests of lattice dumps, log weights, summaries and density grids.

The dump and log-weight digests were taken from the engine before the
packed-code fold and the digit-table weights replaced the per-step gather
and the direct log-gamma calls; the summary and grid digests before the
posterior read the int64 key columns in place instead of a float copy. So
these tests hold the code to bitwise equal output. The digests depend on
float64 `log`, `exp` and the `scipy.special` functions returning the same
bits, which holds for one numpy/scipy build on one CPU family.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from mixexact import lattice, posterior
from mixexact.families import DirichletMultinomial, PoissonGamma
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


def test_worked_example_evidence():
    data, prior, *_ = GOLDEN["worked-example"]
    assert repr(posterior.log_evidence(lattice.build(data, 2), prior)) == "-12.490069462412716"
