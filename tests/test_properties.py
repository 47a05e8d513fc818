"""Property tests of the lattice engine against the brute-force oracle.

Hypothesis runs derandomized, so every run draws the same examples. Sizes
stay at desk scale (k**n at most a few hundred allocations) to keep the
whole module within a few seconds.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mixexact import lattice, oracle, posterior
from mixexact.errors import LatticeFormatError
from mixexact.families import DirichletMultinomial, PoissonGamma
from mixexact.posterior import MixturePrior

PROPERTY = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

hyper = st.floats(0.25, 6.0)


@st.composite
def poisson_cases(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5 if k == 3 else 7))
    data = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    alpha = tuple(draw(hyper) for _ in range(k))
    comps = tuple(PoissonGamma(draw(hyper), draw(hyper)) for _ in range(k))
    return data, MixturePrior(alpha, comps)


def multinomial_rows(v: int, big: bool):
    counts = st.integers(0, 10**6) if big else st.integers(0, 3)
    return st.tuples(*[counts] * v).filter(lambda row: sum(row) > 0)


@st.composite
def multinomial_cases(draw, big: bool = False):
    k = draw(st.integers(1, 3))
    v = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4 if k == 3 else 6))
    data = draw(st.lists(multinomial_rows(v, big), min_size=n, max_size=n))
    alpha = tuple(draw(hyper) for _ in range(k))
    comps = tuple(DirichletMultinomial(tuple(draw(hyper) for _ in range(v))) for _ in range(k))
    return data, MixturePrior(alpha, comps)


def any_case():
    return st.one_of(poisson_cases(), multinomial_cases())


@PROPERTY
@given(case=any_case())
def test_engine_equals_oracle(case):
    data, prior = case
    wp = posterior.normalize(lattice.build(data, prior.k), prior)
    orc = oracle.oracle_posterior(data, prior)
    assert wp.keys == orc.keys
    assert wp.multiplicities == orc.multiplicities
    ok, _, text = oracle.compare_report(wp, orc)
    assert ok, text


@PROPERTY
@given(case=multinomial_cases(big=True))
def test_multiword_statistics_equal_oracle(case):
    # counts up to 10^6 push most keys past one int64 word
    data, prior = case
    lat = lattice.build(data, prior.k)
    orc = oracle.oracle_posterior(data, prior)
    assert tuple(map(tuple, lat.key_array.tolist())) == orc.keys
    assert tuple(lat.mult_array.tolist()) == orc.multiplicities


@PROPERTY
@given(case=any_case(), data=st.data())
def test_invariant_to_data_order(case, data):
    obs, prior = case
    shuffled = data.draw(st.permutations(obs))
    a, b = lattice.build(obs, prior.k), lattice.build(shuffled, prior.k)
    assert a.key_array.tolist() == b.key_array.tolist()
    assert a.mult_array.tolist() == b.mult_array.tolist()


@PROPERTY
@given(case=any_case())
def test_conservation_is_exact(case):
    data, prior = case
    lat = lattice.build(data, prior.k)
    assert lat.total_count() == prior.k ** len(data)
    assert all(type(m) is int and m >= 1 for m in lat.mult_array.tolist())


@PROPERTY
@given(case=any_case())
def test_dump_load_dump_is_identity(case):
    data, prior = case
    text = lattice.dump(lattice.build(data, prior.k))
    assert lattice.dump(lattice.load(text)) == text


def _cells(line: str) -> list[str]:
    return line.split("\t")


@PROPERTY
@given(case=any_case(), data=st.data())
def test_corrupted_dumps_are_rejected(case, data):
    obs, prior = case
    lat = lattice.build(obs, prior.k)
    header, *rows = lattice.dump(lat).splitlines()
    w = lat.slot_width
    i = data.draw(st.integers(0, len(rows) - 1))
    cells = _cells(rows[i])
    d = data.draw(st.integers(1, 5))

    kinds = ["multiplicity", "delete", "duplicate", "negative", "count", "family", "logh"]
    if len(rows) > 1:
        # these need a second entry to be told apart from a valid lattice
        kinds += ["swap", "aggregate", "ragged"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "multiplicity":
        cells[-1] = str(int(cells[-1]) + d)
    elif kind == "negative":
        cells[data.draw(st.integers(0, len(cells) - 2))] = str(-d)
    elif kind == "count":
        c = data.draw(st.integers(0, prior.k - 1)) * w
        cells[c] = str(int(cells[c]) + d)
    elif kind == "aggregate":
        c = data.draw(st.integers(0, prior.k - 1)) * w + data.draw(st.integers(1, w - 1))
        cells[c] = str(int(cells[c]) + d)
    elif kind == "ragged":
        cells = cells[:-1]
    rows[i] = "\t".join(cells)
    if kind == "delete":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(i, rows[i])
    elif kind == "swap":
        j = data.draw(st.integers(0, len(rows) - 1).filter(lambda j: j != i))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "family":
        header = header.replace(f"family={lat.family}", "family=" + data.draw(
            st.sampled_from(["gauss", "normal", "poisson" if lat.family != "poisson" else "multinomial"])))
    elif kind == "logh":
        header = header.rsplit("=", 1)[0] + "=" + data.draw(st.sampled_from(["nan", "inf", "-inf"]))

    with pytest.raises(LatticeFormatError):
        lattice.load("\n".join([header, *rows]) + "\n")
