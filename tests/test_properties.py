"""Property tests of the lattice engine against the brute-force oracle.

Hypothesis runs derandomized, so every run draws the same examples. Sizes
stay at desk scale to keep the whole module within a few seconds: k**n at
most a few hundred allocations wherever the oracle runs, and a few thousand
lattice entries where the fold is compared with itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mixexact import families, lattice, oracle, posterior
from mixexact.errors import LatticeFormatError, NumericalError
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


@st.composite
def packed_cases(draw):
    """(data, prior) with k in 1..5, Poisson counts or multinomial rows, some
    near 2**31, so that codes of k >= 3 span two int64 words."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, {1: 8, 2: 7, 3: 5, 4: 4, 5: 4}[k]))
    counts = st.one_of(st.integers(0, 9), st.integers(2**31 - 2, 2**31 + 2))
    if draw(st.booleans()):
        data = draw(st.lists(counts, min_size=n, max_size=n))
        comps = (PoissonGamma(1.0, 1.0),) * k
    else:
        data = draw(st.lists(st.tuples(counts, counts).filter(lambda row: sum(row) > 0), min_size=n, max_size=n))
        comps = (DirichletMultinomial((1.0, 1.0)),) * k
    return data, MixturePrior((1.0,) * k, comps)


@PROPERTY
@given(case=packed_cases())
@example(case=([2**31, 1], MixturePrior((1.0,) * 3, (PoissonGamma(1.0, 1.0),) * 3)))
def test_decoded_keys_equal_the_oracle(case):
    # the lattice rests as codes; every decode of them gives the oracle's keys
    data, prior = case
    lat = lattice.build(data, prior.k)
    orc = oracle.oracle_posterior(data, prior)
    keys = lat.key_array
    assert tuple(map(tuple, keys.tolist())) == orc.keys
    assert tuple(lat.mult_array.tolist()) == orc.multiplicities
    assert np.array_equal(np.concatenate([block.copy() for _, block in lat.key_blocks()], axis=1), keys.T)
    w = lat.slot_width
    for j, slot in enumerate(lat.slots()):
        assert np.array_equal(slot, keys[:, j * w : (j + 1) * w].T)


@pytest.mark.parametrize("k, n", [(2, 63), (2, 70), (3, 40), (4, 32)])
def test_decoded_keys_beside_object_multiplicities(k, n):
    # n zeros: a key is the slot counts, and its multiplicity their multinomial coefficient
    lat = lattice.build([0] * n, k)
    assert lat.mult_array.dtype == object
    expected = {}
    for counts in itertools.product(range(n + 1), repeat=k - 1):
        if sum(counts) <= n:
            counts = (*counts, n - sum(counts))
            key = tuple(d for c in counts for d in (c, 0))
            expected[key] = math.factorial(n) // math.prod(map(math.factorial, counts))
    assert dict(lat.entries) == expected
    assert lattice.load(lattice.dump(lat)).key_array.tolist() == lat.key_array.tolist()


@PROPERTY
@given(case=any_case(), data=st.data())
def test_invariant_to_data_order(case, data):
    obs, prior = case
    shuffled = data.draw(st.permutations(obs))
    a, b = lattice.build(obs, prior.k), lattice.build(shuffled, prior.k)
    assert a.key_array.tolist() == b.key_array.tolist()
    assert a.mult_array.tolist() == b.mult_array.tolist()
    # log h is one exact sum: the correctly rounded sum of the terms, as the
    # oracle's, and the same bits, dump and evidence in any order
    terms = [families.observe(a.family, x)[1] for x in shuffled]
    assert a.log_base.hex() == b.log_base.hex() == math.fsum(terms).hex()
    assert a.log_base.hex() == oracle._observed(obs, a.family, a.categories)[1].hex()
    text = lattice.dump(a)
    assert lattice.dump(b) == text
    evidence = posterior.log_evidence(a, prior).hex()
    assert posterior.log_evidence(lattice.load(lattice.dump(b)), prior).hex() == evidence
    # so is extend, one observation at a time in the shuffled order
    folded = lattice.init(shuffled[0], prior.k)
    for x in shuffled[1:]:
        folded = lattice.extend(folded, x)
    assert lattice.dump(folded) == text


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


@st.composite
def fold_cases(draw):
    """(data, k) with k in 1..4, in one of three regimes: small digits, whose
    codes fit one int64 word; wide digits, whose codes need several words
    from k=3 on; and sizes at the step where k**n reaches 2**63."""
    regime = draw(st.sampled_from(["one-word", "multi-word", "dtype-boundary"]))
    if regime == "dtype-boundary":
        k = draw(st.sampled_from([2, 4]))
        if k == 2:
            n = draw(st.integers(62, 64))
            return draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), k
        # zeros but the last keep the k=4 lattice at a few thousand entries
        n = draw(st.integers(31, 32))
        return [0] * (n - 1) + [draw(st.integers(0, 3))], k
    k = draw(st.integers(1, 4))
    wide = regime == "multi-word"
    if draw(st.booleans()):
        n = draw(st.integers(1, (8, 8, 6, 5)[k - 1]))
        values = st.integers(0, 2**40 if wide else 8)
        return draw(st.lists(values, min_size=n, max_size=n)), k
    v = draw(st.integers(2, 3))
    n = draw(st.integers(1, (6, 6, 4, 3)[k - 1]))
    return draw(st.lists(multinomial_rows(v, wide), min_size=n, max_size=n)), k


@PROPERTY
@given(case=fold_cases())
def test_build_equals_the_stepwise_fold(case):
    data, k = case
    built = lattice.build(data, k)
    folded = lattice.init(data[0], k)
    for obs in data[1:]:
        folded = lattice.extend(folded, obs)
    assert np.array_equal(built.key_array, folded.key_array)
    assert built.mult_array.dtype == folded.mult_array.dtype
    assert built.mult_array.dtype == (object if k > 1 and k ** len(data) >= 2**63 else np.int64)
    assert built.mult_array.tolist() == folded.mult_array.tolist()
    assert built.log_base.hex() == folded.log_base.hex()
    assert lattice.dump(built) == lattice.dump(folded)


def plain_dump(lat: lattice.StatLattice) -> str:
    """dump's text by the plainest formatter: str of every cell."""
    header = f"family={lat.family} k={lat.k} n={lat.n} logh={lat.log_base.hex()}\n"
    rows = (key + [mult] for key, mult in zip(lat.key_array.tolist(), lat.mult_array.tolist()))
    return header + "".join("\t".join(map(str, row)) + "\n" for row in rows)


@PROPERTY
@given(case=fold_cases())
# k = 1; object multiplicities; multi-word multinomial keys
@example(case=([3, 0, 5], 1))
@example(case=([0] * 70, 2))
@example(case=([(10**6, 0, 3), (0, 999_999, 1), (5, 5, 10**6)], 3))
def test_dump_equals_a_plain_formatter(case):
    data, k = case
    lat = lattice.build(data, k)
    assert lattice.dump(lat) == plain_dump(lat)


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


# magnitudes 2**54 apart: which terms meet first decides what rounds away
SCALED = st.sampled_from([2.0**54, -(2.0**54), 2.0**53, 3.0, -3.0, 1.0, 0.5, 5e-324])


@st.composite
def contribution_rows(draw):
    """(E, k) float arrays with k in 1..12, each entry drawn from a pool of a
    few values, so rows tie; the pool holds +0.0 and -0.0 and values whose
    magnitudes differ, so the order of addition changes the bits."""
    k = draw(st.integers(1, 12))
    e = draw(st.integers(1, 64))
    values = st.one_of(SCALED, st.floats(-1e12, 1e12, allow_nan=False))
    pool = draw(st.lists(values, min_size=1, max_size=6)) + [0.0, -0.0]
    cells = draw(st.lists(st.sampled_from(pool), min_size=e * k, max_size=e * k))
    return np.array(cells).reshape(e, k)


def _in_sequence(row) -> float:
    """The row's values added one after another onto +0.0."""
    total = 0.0
    for value in row:
        total += value
    return total


@PROPERTY
@given(c=contribution_rows())
@example(c=np.full((2, 8), -0.0))
@example(c=np.array([[-0.0, 0.0, 1.0, -1.0, 0.0, -0.0, 1e-300, -1e-300, 3.0]]))
# orders that a network one round short leaves unsorted, with another sum
@example(c=np.array([[2.0**53, 2.0**53, 0.5, 3.0, -(2.0**54)]]))
@example(c=np.array([[3.0, 2.0**54, -3.0, -3.0, 0.5, -3.0, -(2.0**54), -(2.0**54), -3.0]]))
def test_sorted_sum_adds_each_sorted_row_in_sequence(c):
    # the weight path's network and column sum, against each row sorted
    # and added in sequence by plain Python, for every term count
    got = posterior._sorted_sum([column.copy() for column in c.T])
    assert got.tobytes() == np.array([_in_sequence(sorted(row)) for row in c.tolist()]).tobytes()


@PROPERTY
@given(c=contribution_rows(), seed=st.integers(0, 2**32 - 1))
@example(c=np.array([[2.0**53, 2.0**53, 0.5, 3.0, -(2.0**54)]]), seed=0)
@example(c=np.array([[-0.0, 0.0, 1.0, -1.0, 0.0, -0.0, 1e-300, -1e-300, 3.0]]), seed=1)
def test_sorted_sum_ignores_the_column_order(c, seed):
    # relabelled components give the same bits
    order = np.random.default_rng(seed).permutation(c.shape[1])
    permuted = posterior._sorted_sum([c[:, i].copy() for i in order])
    assert permuted.tobytes() == posterior._sorted_sum([column.copy() for column in c.T]).tobytes()


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 300])
def test_row_sum_adds_in_sequence(k):
    rng = np.random.default_rng(k)
    c = rng.standard_normal((64, k)) * 10.0 ** rng.integers(-12, 12, (64, k))
    expected = np.array([_in_sequence(row) for row in c.tolist()])
    assert posterior._row_sum(list(c.T.copy())).tobytes() == expected.tobytes()
    # integer aggregates beyond 2**53 round as they convert to float, then add
    s = rng.integers(2**54, 2**58, (64, k))
    expected = np.array([_in_sequence(map(float, row)) for row in s.tolist()])
    assert posterior._row_sum([column.astype(float) for column in s.T]).tobytes() == expected.tobytes()


# shapes, rates, alpha and beta are drawn from one of these sets; from 1 up,
# no member diverges at a support edge and no default grid may be refused
GRID_LEVELS = {"from-half": (0.5, 1.0, 3.0), "from-one": (1.0, 3.0)}


def default_grids(family: str, levels: tuple, count: int, seed: int):
    """A p_j and a lambda_j or q_j,u default grid of each of `count` seeded
    random cases, each as a call that draws it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, n = int(rng.integers(2, 4)), int(rng.integers(3, 9))
        alpha = tuple(rng.choice(levels, k).tolist())
        if family == "poisson":
            data = rng.poisson(rng.choice([0.5, 3.0, 20.0], n)).tolist()
            comps = tuple(PoissonGamma(*rng.choice(levels, 2).tolist()) for _ in range(k))
            category = None
        else:
            data = [tuple(row) for row in rng.multinomial(int(rng.integers(1, 6)), rng.dirichlet([1.0] * 3), n).tolist()]
            comps = tuple(DirichletMultinomial(tuple(rng.choice(levels, 3).tolist())) for _ in range(k))
            category = int(rng.integers(3))
        wp = posterior.normalize(lattice.build(data, k), MixturePrior(alpha, comps))
        j = int(rng.integers(k))
        yield lambda: posterior.marginal_weight_density(wp, j)
        yield lambda: posterior.marginal_component_density(wp, j, category=category)


@pytest.mark.parametrize("levels", list(GRID_LEVELS))
@pytest.mark.parametrize("family", ["poisson", "multinomial"])
def test_default_grids_integrate_to_one_or_are_refused(family, levels):
    refused = 0
    for draw in default_grids(family, GRID_LEVELS[levels], 100, seed=23):
        try:
            g = draw()
        except NumericalError:
            refused += 1
            continue
        assert g.grid.size == posterior.DEFAULT_GRID_POINTS
        assert abs(g.trapezoid() - 1.0) <= posterior.DEFAULT_TOLERANCE
    print(f"{family} {levels}: {refused} of 200 default grids refused")
    assert refused == 0 or levels == "from-half"


# log shapes of the quantile round trips: 0.05 to 1e6
LOG_SHAPE = st.floats(math.log(0.05), math.log(1e6))
# the coordinate point, in spreads from the member's Laplace centre
SPREADS = st.floats(-8.0, 8.0)


@PROPERTY
@given(log_a=LOG_SHAPE, z=SPREADS)
def test_gamma_quantile_inverts_its_tail_in_log_t(log_a, z):
    # the tail mass at w = log(t / a), then the point of that mass, taken
    # from the smaller tail, lands back on w
    a = np.array([math.exp(log_a)])
    w = z / math.sqrt(a[0])
    lower, upper, _ = (v[0] for v in families._gamma_log_tails(a, families._gamma_log_scale(a), np.array([w])))
    assume(min(lower, upper) > -700.0)
    if lower <= upper:
        t = families.gamma_ppf(math.exp(lower), a[0], 1.0)
    else:
        t = families.gamma_isf(math.exp(upper), a[0], 1.0)
    assert abs(math.log(t / a[0]) - w) <= 1e-10 * max(1.0, abs(w))


@PROPERTY
@given(log_a=LOG_SHAPE, log_b=LOG_SHAPE, z=SPREADS)
def test_beta_quantile_inverts_its_tail_in_logit_t(log_a, log_b, z):
    # as above at y = logit t; an upper tail of Beta(a, b) is the lower
    # one of Beta(b, a) at -y. The point solved for is t or 1 - t, and
    # its rounding and logit's may move y by two spacings of its doubles,
    # a spacing s being s / (t (1 - t)) in y
    a, b = np.array([math.exp(log_a)]), np.array([math.exp(log_b)])
    y = log_a - log_b + z * math.sqrt(1.0 / a[0] + 1.0 / b[0])
    lower, upper, _ = (v[0] for v in families._beta_log_tails(a, b, families.betaln(a, b), np.array([y])))
    assume(min(lower, upper) > -700.0)
    if lower <= upper:
        t = families.beta_ppf(math.exp(lower), a[0], b[0])
        back = families.logit(t)
    else:
        t = families.beta_ppf(math.exp(upper), b[0], a[0])
        back = -families.logit(t)
    assert abs(back - y) <= 1e-10 * max(1.0, abs(y)) + 2.0 * np.spacing(t) / (t * (1.0 - t))
