"""Unit and property tests for the statistic lattice."""

from __future__ import annotations

import random
import re
import sys
from math import comb, prod

import numpy as np
import pytest

from mixexact import families, lattice, oracle
from mixexact.errors import LatticeFormatError, ResourceLimitError, UnsupportedFamilyError
from mixexact.families import DirichletMultinomial
from mixexact.lattice import StatLattice, build, dump, extend, init, load
from mixexact.posterior import MixturePrior
from conftest import run_capped

WORKED_DATA = [0, 0, 0, 1, 2, 2, 4]
# aggregates near 10^5 over 3 slots of 4 categories: codes of several words
MULTIWORD_DATA = [
    (70_000, 3_000, 90_000, 1_000),
    (2_000, 80_000, 500, 40_000),
    (65_000, 1, 0, 12_345),
    (3, 99_999, 7, 50_000),
    (31_000, 31_000, 31_000, 31_000),
]


def _dump_text(k: int, n: int, entries: dict) -> str:
    """A Poisson dump's text for {key: multiplicity}, keys in sorted order."""
    rows = ["\t".join(map(str, (*key, m))) + "\n" for key, m in sorted(entries.items())]
    return f"family=poisson k={k} n={n} logh=0x0.0p+0\n" + "".join(rows)


# the n=0 lattice: one all-zero key, multiplicity 1
PRIOR_ONLY = _dump_text(2, 0, {(0, 0, 0, 0): 1})


class TestInit:
    def test_singleton_lattice(self):
        lat = init(3, 2)
        assert lat.family == "poisson"
        assert lat.n == 1
        assert dict(lat.entries) == {(1, 3, 0, 0): 1, (0, 0, 1, 3): 1}

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            init(1, 0)

    def test_family_inference(self):
        assert init(2, 2).family == "poisson"
        assert init((1, 0, 2), 2).family == "multinomial"

    def test_numpy_observations_infer_the_family(self):
        assert dump(build(np.array([0, 1, 2]), 2)) == dump(build([0, 1, 2], 2))
        with pytest.raises(UnsupportedFamilyError):
            build(np.array([0.1, 0.2]), 2)
        with pytest.raises(ValueError, match="not a supported observation"):
            build(np.array([True, False]), 2)

    def test_normal_family_is_refused(self):
        with pytest.raises(UnsupportedFamilyError):
            init(1.5, 2)
        with pytest.raises(UnsupportedFamilyError):
            build([0.1, 0.2], 2)

    def test_invalid_observation_rejected(self):
        with pytest.raises(ValueError):
            init(-1, 2)


class TestSmallCounts:
    def test_two_equal_observations(self):
        lat = build([0, 0], 2)
        assert lat.distinct_count() == 3
        assert lat.total_count() == 4

    def test_two_distinct_observations(self):
        lat = build([0, 1], 2)
        assert lat.distinct_count() == 4
        assert lat.total_count() == 4
        assert sorted(lat.entries) == [
            (0, 0, 2, 1),
            (1, 0, 1, 1),
            (1, 1, 1, 0),
            (2, 1, 0, 0),
        ]
        assert all(m == 1 for m in lat.entries.values())

    def test_worked_example_counts(self):
        lat = build(WORKED_DATA, 2)
        assert lat.distinct_count() == 42
        assert lat.total_count() == 128

    def test_k_equals_one_collapses_everything(self):
        lat = build([5, 0, 2], 1)
        assert lat.distinct_count() == 1
        assert lat.total_count() == 1
        assert dict(lat.entries) == {(3, 7): 1}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identical_observations_give_compositions(self, k):
        # all-equal data: statistic determined by the group sizes alone,
        # so distinct entries = weak compositions of n into k parts
        n = 10
        lat = build([4] * n, k)
        assert lat.distinct_count() == comb(n + k - 1, k - 1)
        assert lat.total_count() == k**n


class TestConservation:
    def test_total_count_is_k_to_the_n(self):
        rng = np.random.default_rng(512)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, 5))
            data = [int(v) for v in rng.poisson(2.0, size=n)]
            lat = build(data, k)
            assert lat.total_count() == k**n

    def test_dataset_order_is_irrelevant(self):
        rng = np.random.default_rng(99)
        data = [int(v) for v in rng.poisson(3.0, size=9)]
        lat = build(data, 3)
        shuffled = list(data)
        rng.shuffle(shuffled)
        assert dict(build(shuffled, 3).entries) == dict(lat.entries)

    def test_multinomial_conservation(self):
        rng = np.random.default_rng(7)
        data = [tuple(int(c) for c in rng.multinomial(3, [0.4, 0.4, 0.2])) for _ in range(6)]
        lat = build(data, 2)
        assert lat.total_count() == 2**6
        assert lat.categories == 3

    def test_multiplicities_are_exact_integers(self):
        lat = build([1] * 30, 2)  # 2^30 allocations, far beyond float precision
        assert lat.total_count() == 2**30
        assert all(isinstance(m, int) for m in lat.entries.values())


class TestExtend:
    def test_extend_matches_build(self):
        lat = init(0, 2)
        for obs in [1, 1, 2]:
            lat = extend(lat, obs)
        assert dict(lat.entries) == dict(build([0, 1, 1, 2], 2).entries)

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimitError) as err:
            build(WORKED_DATA, 4, budget=10)
        # the n=0 lattice's 1 entry, then 4, 10 and 20 after the first three observations
        assert err.value.entry_count == 20
        assert err.value.step == 3
        assert err.value.growth == (1, 4, 10, 20)
        assert "after 3 observations" in str(err.value)

    def test_budget_covers_the_first_observation(self):
        with pytest.raises(ResourceLimitError) as err:
            build([3], 4, budget=1)
        assert err.value.entry_count == 4
        assert err.value.step == 1
        assert err.value.growth == (1, 4)

    def test_k_above_the_budget_fails_before_the_first_step(self):
        # the first observation makes exactly k entries; at this k the first
        # step alone would tile k copies of about k/15 code words
        k = 6 * 10**6
        with pytest.raises(ResourceLimitError) as err:
            build([0, 0, 3], k)
        assert err.value.entry_count == k
        assert err.value.step == 1
        assert err.value.growth == (1, k)
        assert str(err.value) == f"entry budget 5000000 exceeded at {k} entries after 1 observations"
        # the observations are read first, so bad data keeps its own error at any k
        with pytest.raises(ValueError, match="nonnegative integer"):
            build([-1, 0], k)

    def test_budget_ignores_the_row_order(self):
        # the fold reads the rows in value order; in row order, the reversed
        # rows would exceed the budget at the second step, with 16 entries
        raised = []
        for rows in (WORKED_DATA, WORKED_DATA[::-1], [2, 0, 4, 0, 1, 2, 0]):
            with pytest.raises(ResourceLimitError) as err:
                build(rows, 4, budget=10)
            raised.append((err.value.entry_count, err.value.step, err.value.growth, str(err.value)))
        assert raised == [raised[0]] * 3

    def test_wrong_family_observation_rejected(self):
        with pytest.raises(ValueError):
            extend(init(0, 2), (1, 2))


class TestArrayLattice:
    def test_multiplicities_beyond_int64(self):
        lat = build([0] * 70, 2)
        mults = lat.mult_array.tolist()
        assert lat.total_count() == 2**70
        assert all(type(m) is int for m in mults)
        assert max(mults) > 2**63
        # key (n_1, 0, n_2, 0) in lexicographic order: n_1 = 0, 1, ..., 70
        assert lat.key_array[:, 0].tolist() == list(range(71))
        assert mults == [comb(70, n1) for n1 in range(71)]

    def test_multiword_keys_match_oracle(self):
        # aggregates near 10^5 over 3 slots of 5 columns: the key space is
        # far beyond 2^63, so every code spans several int64 words
        data = MULTIWORD_DATA
        lat = build(data, 3)
        assert prod(int(m) + 1 for m in lat.key_array.max(axis=0)) > 2**126
        prior = MixturePrior((1.0,) * 3, (DirichletMultinomial((1.0,) * 4),) * 3)
        orc = oracle.oracle_posterior(data, prior)
        assert tuple(map(tuple, lat.key_array.tolist())) == orc.keys
        assert tuple(lat.mult_array.tolist()) == orc.multiplicities

    def test_digits_near_int64_limit(self):
        big = 2**60  # column totals reach 2**61, the largest digit k=2 allows is 2**62 - 1
        lat = build([big, big], 2)
        assert dict(lat.entries) == {(0, 0, 2, 2 * big): 1, (1, big, 1, big): 2, (2, 2 * big, 0, 0): 1}
        with pytest.raises(ValueError, match="int64"):
            build([2 * big, 2 * big], 2)
        with pytest.raises(ValueError, match="int64"):
            build([2**64], 2)
        # totals (2, 2**62 + 1): a column sum over k = 3 slots could reach 3 * (2**62 + 1)
        with pytest.raises(ValueError, match="^a statistic digit would leave the int64 key range$"):
            build([2**62, 1], 3)
        assert build([2**62, 1], 1).key_array.tolist() == [[2, 2**62 + 1]]

    def test_keys_sorted_and_immutable(self):
        lat = build(WORKED_DATA, 3)
        rows = lat.key_array.tolist()
        assert rows == sorted(rows)
        assert len(set(map(tuple, rows))) == len(rows)
        assert not lat.key_array.flags.writeable
        assert not lat.mult_array.flags.writeable
        with pytest.raises(AttributeError):
            lat.n = 3


class TestColumnLayout:
    """Keys rest as packed codes: `codes` is a read-only (W, E) int64 block,
    and `key_array` the read-only transpose of one C-contiguous (k*w, E)
    block decoded from it on each access, whichever way the lattice was made."""

    MADE = {
        "build": lambda: build(WORKED_DATA, 3),
        "build-k1": lambda: build(WORKED_DATA, 1),
        "build-multinomial": lambda: build([(2, 1, 0), (0, 1, 2), (1, 1, 1)], 2),
        "build-multiword": lambda: build([(70_000, 3_000, 90_000), (2_000, 80_000, 500)] * 2, 3),
        "init": lambda: init(4, 3),
        "extend": lambda: extend(build(WORKED_DATA, 2), 5),
        "load": lambda: load(dump(build(WORKED_DATA, 3))),
        "load-object-multiplicities": lambda: load(dump(build([0] * 70, 2))),
    }

    @pytest.mark.parametrize("name", list(MADE))
    def test_keys_are_read_only_columns(self, name):
        lat = self.MADE[name]()
        assert lat.key_array.T.flags.c_contiguous
        assert lat.key_array.shape == (lat.distinct_count(), lat.k * lat.slot_width)
        assert not lat.key_array.flags.writeable
        assert not lat.key_array.T.flags.writeable
        assert lat.codes.dtype == np.int64 and lat.codes.shape[1] == lat.distinct_count()
        assert not lat.codes.flags.writeable
        # the codes are the rest state: every lattice of these keys holds the same ones
        assert np.array_equal(load(dump(lat)).codes, lat.codes)

    @pytest.mark.parametrize("rows", [1, 3, lattice._BLOCK_ROWS])
    @pytest.mark.parametrize(
        "data, k",
        [(WORKED_DATA, 3), ([10**6, 3, 7], 2), ([(2, 1, 0), (0, 1, 2)], 2), ([0] * 70, 2), ([2**31, 1], 3)],
        ids=["digit-table", "divmod-planes", "multinomial", "object-multiplicities", "two-words"],
    )
    def test_dump_writes_the_decoded_keys_of_every_block(self, data, k, rows, monkeypatch):
        # dump decodes the codes a block at a time; each line is its decoded
        # key row and multiplicity, whatever block the entry falls in
        lat = build(data, k)
        lines = (
            "\t".join(map(str, [*key, mult])) + "\n" for key, mult in zip(lat.key_array.tolist(), lat.mult_array.tolist())
        )
        expected = lattice._header(lat.family, k, lat.n, lat.log_base) + "".join(lines)
        monkeypatch.setattr(lattice, "_BLOCK_ROWS", rows)
        assert dump(lat) == expected

    def test_two_word_keys_decode_exactly(self):
        # radix (3, 2**31 + 2) per packed slot: 9 * (2**31 + 2)**2 passes 2**63
        lat = build([2**31, 1], 3)
        assert lat.codes.shape == (2, 9)
        assert dict(lat.entries) == {
            (a, sa, b, sb, 2 - a - b, 2**31 + 1 - sa - sb): mult
            for (a, sa, b, sb), mult in {
                (0, 0, 0, 0): 1, (0, 0, 1, 1): 1, (0, 0, 1, 2**31): 1, (0, 0, 2, 2**31 + 1): 1,
                (1, 1, 0, 0): 1, (1, 1, 1, 2**31): 1, (1, 2**31, 0, 0): 1, (1, 2**31, 1, 1): 1,
                (2, 2**31 + 1, 0, 0): 1,
            }.items()
        }

    def test_a_word_whose_codes_fill_int64_closes(self):
        # multinomial columns (n, S_1, S_2) with totals (3, 2**61 - 1, 0) at
        # k = 3: slot 1's radices 1, 2**61 and 4 multiply to 2**63, so its
        # count starts a new word, and no place value reaches 2**63, which
        # int64 cannot hold
        data = [(2**61 - 3, 0), (1, 0), (1, 0)]
        lat = build(data, 3)
        prior = MixturePrior((1.0,) * 3, (DirichletMultinomial((1.0, 1.0)),) * 3)
        assert tuple(map(tuple, lat.key_array.tolist())) == oracle.oracle_posterior(data, prior).keys
        assert dump(load(dump(lat))) == dump(lat)


def _fold(data, k: int) -> list[StatLattice]:
    """init/extend over data, keeping the lattice after every step."""
    steps = [init(data[0], k)]
    for obs in data[1:]:
        steps.append(extend(steps[-1], obs))
    return steps


def _random_radix(rng: random.Random) -> list[int]:
    """Radices of 1 (the digit 0 alone), small ones, powers of two whose
    products land exactly on 2**63, and wide ones up to 2**62."""
    radix = []
    for _ in range(rng.randrange(1, 12)):
        kind = rng.randrange(4)
        if kind == 0:
            radix.append(1)
        elif kind == 1:
            radix.append(rng.randrange(2, 10))
        elif kind == 2:
            radix.append(2 ** rng.choice([1, 2, 3, 21, 31, 32, 62]))
        else:
            radix.append(rng.randrange(2, 2**62 + 1))
    return radix


class TestWordPlaces:
    """One rule places every packed column: `_word_places` gives its word
    and its place value there, and the fold, `_repack`, `load` and
    `key_blocks` all read it."""

    RADICES = [
        [1, 1, 1],  # the n = 0 lattice's columns
        [2**21] * 3,  # the third column's product would be 2**63 exactly
        [2, 2**62],
        [2**62, 2],
        [2**32, 2**31, 2**32],
        [3, 2**31 + 2, 3, 2**31 + 2],  # build([2**31, 1], 3): two words
        [1, 2**61, 4, 1, 2**61, 4],  # a word whose codes would fill int64
        [4] * 64,  # 31 columns of radix 4 to a word
    ] + [_random_radix(random.Random(seed)) for seed in range(200)]

    def test_words_fill_int64_and_close_only_when_full(self):
        for radix in self.RADICES:
            self.check_words(radix)

    @staticmethod
    def check_words(radix):
        word, place, words = lattice._word_places(radix)
        assert word[0] == 0 and word[-1] == words - 1
        assert all(b - a in (0, 1) for a, b in zip(word, word[1:]))  # contiguous, in order
        for w in range(words):
            columns = [c for c in range(len(radix)) if word[c] == w]
            # a column's place is the product of the radices after it in its word
            assert [place[c] for c in columns] == [prod(radix[d] for d in columns[i + 1 :]) for i in range(len(columns))]
            # no code of the word, and no place value, reaches 2**63
            assert sum(place[c] * (radix[c] - 1) for c in columns) < 2**63
            assert place[columns[0]] * radix[columns[0]] < 2**63
            if w > 0:  # the word before closed because this one's product could not take its last column
                assert place[columns[0]] * radix[columns[0]] * radix[columns[0] - 1] >= 2**63
        leads = [c for c in range(len(radix)) if c == 0 or word[c - 1] != word[c]]
        assert leads == [word.index(w) for w in range(words)]

    @pytest.mark.parametrize("rows", [1, 3, lattice._BLOCK_ROWS])
    def test_digits_packed_by_word_and_place_decode_unchanged(self, rows, monkeypatch):
        rng = np.random.default_rng(34)
        monkeypatch.setattr(lattice, "_BLOCK_ROWS", rows)
        for radix in self.RADICES:
            word, place, words = lattice._word_places(radix)
            # every digit 0 and every largest digit, then random digits in range
            keys = [[0] * len(radix), [r - 1 for r in radix]]
            keys += [[int(rng.integers(r)) for r in radix] for _ in range(7)]
            codes = [[0] * len(keys) for _ in range(words)]
            for e, key in enumerate(keys):
                for c, digit in enumerate(key):
                    codes[word[c]][e] += place[c] * digit
            # one packed slot at k = 2: the packed columns are the key's first len(radix)
            lat = StatLattice._from_codes(
                "multinomial", 2, 0, np.array(codes, dtype=np.int64), radix, [r - 1 for r in radix],
                np.ones(len(keys), dtype=np.int64), 0,
            )
            decoded = np.concatenate([block.copy() for _, block in lat.key_blocks(range(len(radix)))], axis=1)
            assert decoded.T.tolist() == keys


class TestMultiplicityDtype:
    """Multiplicities are int64 while k**n < 2**63 and Python ints from there on."""

    @pytest.mark.parametrize("n", [62, 63, 64])
    def test_dtype_boundary(self, n):
        data = [i % 3 for i in range(n)]
        steps = _fold(data, 2)
        for lat in steps:
            assert lat.mult_array.dtype == (np.int64 if 2**lat.n < 2**63 else object)
        lat = build(data, 2)
        assert lat.mult_array.dtype == (np.int64 if n < 63 else object)
        assert lat.total_count() == 2**n
        assert type(lat.total_count()) is int
        assert all(type(m) is int for m in lat.mult_array.tolist())
        assert np.array_equal(steps[-1].key_array, lat.key_array)
        assert steps[-1].mult_array.dtype == lat.mult_array.dtype
        assert steps[-1].mult_array.tolist() == lat.mult_array.tolist()
        text = dump(lat)
        loaded = load(text)
        assert loaded.mult_array.dtype == lat.mult_array.dtype
        assert loaded.mult_array.tolist() == lat.mult_array.tolist()
        assert dump(loaded) == text

    def test_object_multiplicities_round_trip(self):
        lat = build([0] * 70, 2)
        text = dump(lat)
        assert "\t112186277816662845432\n" in text  # C(70, 35), 21 digits
        loaded = load(text)
        assert loaded.mult_array.dtype == object
        assert loaded.mult_array.tolist() == [comb(70, n1) for n1 in range(71)]
        assert dump(loaded) == text

    def test_load_follows_the_dtype_rule(self):
        assert load(PRIOR_ONLY).mult_array.dtype == np.int64
        wide = load(_dump_text(2, 63, {(63, 0, 0, 0): 1, (0, 0, 63, 0): 2**63 - 1}))
        assert wide.mult_array.dtype == object
        assert wide.total_count() == 2**63

    @pytest.mark.parametrize(
        "entries", [{(1, 0, 0, 0): 5}, {(1, 0, 0, 0): 2**64}, {(1, 0, 0, 0): 2**64, (0, 0, 1, 0): 2 - 2**64}]
    )
    def test_load_rejects_multiplicities_that_break_conservation(self, entries):
        with pytest.raises(LatticeFormatError, match="2\\^1|nonpositive multiplicity"):
            load(_dump_text(2, 1, entries))

    @pytest.mark.parametrize(
        "entries",
        [{(1, 2, 0, 0): 1, (0, 0, 1, 3): 1}, {(2, 0, 0, 0): 2}, {(1, -1, 0, 1): 2}],
        ids=["totals-disagree", "counts-above-n", "negative-digit"],
    )
    def test_load_rejects_keys_the_fold_cannot_pack(self, entries):
        with pytest.raises(LatticeFormatError, match="n=1|each other's totals|digit out of range"):
            load(_dump_text(2, 1, entries))

    @pytest.mark.parametrize("excess", [2**63, 2**64, 10**19, 10**30])
    def test_multiplicity_beyond_int64_does_not_wrap(self, excess):
        # k**n = 128: a parser that wrapped modulo 2**64 would read the
        # original multiplicity back and accept the dump
        text = dump(build(WORKED_DATA, 2))
        cell = text.splitlines()[2].split("\t")[4]
        with pytest.raises(LatticeFormatError, match="conservation"):
            load(_corrupt(text, 2, 4, str(int(cell) + excess)))

    def test_conservation_sum_does_not_wrap(self):
        # every multiplicity is at most k**n = 2**62, and their sum
        # 5 * 2**62 = 2**64 + 2**62 is k**n modulo 2**64
        header, *rows = dump(build([0] * 62, 2)).splitlines()
        mults = [1] * 58 + [2**62] * 4 + [2**62 - 58]
        assert len(mults) == len(rows) and sum(mults) % 2**64 == 2**62
        rows = [row.rsplit("\t", 1)[0] + f"\t{m}" for row, m in zip(rows, mults)]
        with pytest.raises(LatticeFormatError, match="conservation"):
            load("\n".join([header, *rows]) + "\n")


def _tile_then_gather(data, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference fold over unpacked key rows: each step stacks the k
    successor runs slot by slot, sorts the rows, and gathers the
    multiplicities, tiled k times, in the sorted order."""
    family = families.infer_family(data[0])
    stats = [np.array([1, *families.observe(family, x)[0]]) for x in data]
    w = len(stats[0])
    keys, mults = np.zeros((1, k * w), dtype=np.int64), np.ones(1, dtype=np.int64)
    for n, stat in enumerate(stats, 1):
        succ = np.concatenate([keys + np.pad(stat, (j * w, (k - 1 - j) * w)) for j in range(k)])
        order = np.lexsort(succ.T[::-1])
        succ = succ[order]
        starts = np.flatnonzero(np.r_[True, np.any(succ[1:] != succ[:-1], axis=1)])
        dtype = np.int64 if k == 1 or k**n < 2**63 else object
        mults = np.add.reduceat(np.tile(mults.astype(dtype, copy=False), k)[order], starts)
        keys = succ[starts]
    return keys, mults


class TestFoldGather:
    """The fold gathers each successor's multiplicity with `take(mode="wrap")`
    from the entry it came from; a reference that tiles the multiplicities k
    times first gives the same keys, values and dtype, through the step
    where k**n reaches 2**63 and on multi-word codes."""

    CASES = {
        "k2-n62": ([i % 3 for i in range(62)], 2),
        "k2-n63": ([i % 3 for i in range(63)], 2),
        "k2-n64": ([i % 3 for i in range(64)], 2),
        "k1-n70": ([i % 5 for i in range(70)], 1),
        "multinomial-multiword": (MULTIWORD_DATA, 3),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_tile_then_gather(self, name):
        data, k = self.CASES[name]
        keys, mults = _tile_then_gather(data, k)
        for lat in (build(data, k), extend(build(data[:-1], k), data[-1])):
            assert np.array_equal(lat.key_array, keys)
            assert lat.mult_array.dtype == mults.dtype
            assert lat.mult_array.tolist() == mults.tolist()
        if name == "multinomial-multiword":
            assert prod(int(m) + 1 for m in keys.max(axis=0)) > 2**126


def _corrupt(text: str, line: int, cell: int | None, value: str) -> str:
    lines = text.splitlines()
    if cell is None:
        lines[line] = value
    else:
        cells = lines[line].split("\t")
        cells[cell] = value
        lines[line] = "\t".join(cells)
    return "\n".join(lines) + "\n"


def _order_faults(data: list, k: int) -> tuple[str, str]:
    """A multinomial dump with two adjacent entries that agree on slot 0
    swapped, so a later slot orders them, and one with an entry repeated."""
    lines = dump(build(data, k)).splitlines()
    w = len(data[0]) + 1
    i = next(i for i in range(1, len(lines) - 1) if lines[i].split("\t")[:w] == lines[i + 1].split("\t")[:w])
    swapped = [*lines[:i], lines[i + 1], lines[i], *lines[i + 2 :]]
    m = len(lines) // 2
    repeated = [*lines[:m], lines[m], *lines[m:]]
    return "\n".join(swapped) + "\n", "\n".join(repeated) + "\n"


# k = 3: at k = 2 slot 0 and the shared totals fix slot 1
MULTINOMIAL_ORDER = _order_faults([(2, 1, 0), (0, 1, 2), (1, 1, 1), (3, 0, 0), (0, 2, 1), (1, 0, 2)], 3)
# digits too wide for one packed word of the fold
MULTIWORD_ORDER = _order_faults(
    [
        (70_000, 3_000, 90_000, 1_000),
        (2_000, 80_000, 500, 40_000),
        (65_000, 1, 0, 12_345),
        (3, 99_999, 7, 50_000),
        (31_000, 31_000, 31_000, 31_000),
    ],
    3,
)


class TestLoadValidation:
    TEXT = dump(build(WORKED_DATA, 2))
    LINES = TEXT.splitlines()
    CELL = LINES[2].split("\t")
    BODY = "\n".join(LINES[1:]) + "\n"

    @pytest.mark.parametrize(
        "text, match",
        [
            (TEXT.replace("family=poisson", "family=gauss"), "has no lattice"),
            (TEXT.replace("family=poisson", "family=normal"), "has no lattice"),
            (_corrupt(TEXT, 0, None, LINES[0].rsplit("=", 1)[0] + "=nan"), "invalid lattice header"),
            (_corrupt(TEXT, 0, None, LINES[0].rsplit("=", 1)[0] + "=inf"), "invalid lattice header"),
            (TEXT.replace(" k=2 ", " k=0 "), "invalid lattice header"),
            (_corrupt(TEXT, 3, None, LINES[3].rsplit("\t", 2)[0] + "\t1"), "disagree on the key width"),
            ("\n".join(line.split("\t", 1)[-1] for line in LINES) + "\n", "does not fit"),
            (_corrupt(TEXT, 2, 1, "-1"), "digit out of range"),
            (_corrupt(TEXT, 2, 1, str(2**62)), "digit out of range"),
            (_corrupt(TEXT, 2, 4, "0"), "nonpositive multiplicity"),
            (_corrupt(TEXT, 2, 0, str(int(LINES[2].split("\t")[0]) + 1)), "n=7"),
            (_corrupt(TEXT, 2, 1, str(int(LINES[2].split("\t")[1]) + 1)), "each other's totals"),
            (_corrupt(TEXT, 2, 1, "x"), "malformed lattice entry"),
            (_corrupt(TEXT, 2, 1, str(2**70)), "malformed lattice entry"),
            ("\n".join([*LINES[:3], LINES[2], *LINES[3:]]) + "\n", "duplicated or out of order"),
            ("\n".join([LINES[0], LINES[2], LINES[1], *LINES[3:]]) + "\n", "duplicated or out of order"),
            pytest.param(MULTINOMIAL_ORDER[0], "duplicated or out of order", id="multinomial-swapped"),
            pytest.param(MULTINOMIAL_ORDER[1], "duplicated or out of order", id="multinomial-repeated"),
            pytest.param(MULTIWORD_ORDER[0], "duplicated or out of order", id="multiword-swapped"),
            pytest.param(MULTIWORD_ORDER[1], "duplicated or out of order", id="multiword-repeated"),
            ("\n".join(LINES[:1] + LINES[2:]) + "\n", "conservation"),
            (LINES[0] + "\n", "no entries"),
            # outside dump's grammar, and accepted before load parsed exactly it
            pytest.param(
                _corrupt(TEXT, 2, 4, "+" + CELL[4]),
                "malformed lattice entry",
                id="plus-sign",
            ),
            pytest.param(
                _corrupt(TEXT, 2, 4, " " + CELL[4]),
                "malformed lattice entry",
                id="leading-space",
            ),
            pytest.param(
                _corrupt(TEXT, 2, 4, CELL[4] + " "),
                "malformed lattice entry",
                id="trailing-space",
            ),
            pytest.param(_corrupt(TEXT, 2, 4, "0" + CELL[4]), "leading zero", id="leading-zero"),
            pytest.param(_corrupt(TEXT, 2, 1, "00"), "leading zero", id="double-zero"),
            pytest.param(_corrupt(TEXT, 2, 1, "-0"), "digit out of range", id="minus-zero"),
            pytest.param(
                _corrupt(TEXT, 2, 0, "".join(chr(0x660 + int(c)) for c in CELL[0])),
                "non-ASCII",
                id="arabic-indic-digits",
            ),
            pytest.param(_corrupt(TEXT, 2, 0, "\u0660"), "non-ASCII", id="arabic-indic-zero"),
            pytest.param(
                LINES[0] + "\n" + BODY.replace("\n", "\r\n"),
                "malformed lattice entry",
                id="crlf-body",
            ),
            pytest.param(
                TEXT.replace("\n", "\r\n"),
                "malformed lattice header",
                id="crlf-everywhere",
            ),
            pytest.param(
                "\n".join([*LINES[:3], "", *LINES[3:]]) + "\n",
                "blank line",
                id="blank-line-inside",
            ),
            pytest.param(LINES[0] + "\n\n" + BODY, "blank line", id="blank-line-first"),
            pytest.param(TEXT + "\n", "blank line", id="blank-line-last"),
            pytest.param(_corrupt(TEXT, 2, 1, ""), "empty cell", id="empty-cell"),
            pytest.param(TEXT[:-1], "no newline", id="no-final-newline"),
            pytest.param(
                TEXT.replace(" k=2 ", " k=02 "),
                "malformed lattice header",
                id="header-k-leading-zero",
            ),
            pytest.param(
                TEXT.replace(" k=2 ", " k=+2 "),
                "malformed lattice header",
                id="header-k-plus",
            ),
            pytest.param(
                TEXT.replace(" k=2 ", "  k=2 "),
                "malformed lattice header",
                id="header-double-space",
            ),
            pytest.param(
                TEXT.replace("family=poisson k=2 n=7", "k=2 family=poisson n=7"),
                "malformed lattice header",
                id="header-reordered",
            ),
            pytest.param(
                TEXT.replace(" logh=", " logh=0x0.0p+0 logh="),
                "malformed lattice header",
                id="header-duplicate-key",
            ),
        ],
    )
    def test_malformed_dumps_are_rejected(self, text, match):
        with pytest.raises(LatticeFormatError, match=match):
            load(text)

    def test_overlong_multiplicity_is_a_format_error(self):
        # k**n = 2**70 parses multiplicities with int(), which refuses a cell
        # longer than the interpreter's digit limit (4300 by default)
        text = dump(build([0] * 70, 2))
        with pytest.raises(LatticeFormatError, match="malformed lattice entry|conservation"):
            load(_corrupt(text, 1, 4, "9" * 5000))

    def test_empty_slot_with_aggregate_rejected(self):
        # one-entry lattice whose empty second slot claims a nonzero sum
        with pytest.raises(LatticeFormatError, match="empty slot"):
            load("family=poisson k=1 n=0 logh=0x0.0p+0\n0\t3\t1\n")

    def test_format_error_is_a_value_error(self):
        assert issubclass(LatticeFormatError, ValueError)

    def test_prior_only_lattice_round_trips(self):
        assert dump(load(PRIOR_ONLY)) == PRIOR_ONLY


def _cell(text: str, line: int, cell: int) -> str:
    return text.splitlines()[line].split("\t")[cell]


def _swap_with_previous(text: str, line: int) -> str:
    lines = text.splitlines()
    lines[line - 1], lines[line] = lines[line], lines[line - 1]
    return "\n".join(lines) + "\n"


# kind: (the defect, put on text line `line` of a k=2, n=7 dump; load's message)
BLOCK_EDGE_DEFECTS = {
    "stray-byte": (lambda t, line: _corrupt(t, line, 1, "x"), "malformed lattice entry: 'x'"),
    "empty-cell": (lambda t, line: _corrupt(t, line, 1, ""), "empty cell"),
    "leading-zero": (lambda t, line: _corrupt(t, line, 1, "0" + _cell(t, line, 1)), "leading zero"),
    "key-width": (
        lambda t, line: _corrupt(t, line, None, t.splitlines()[line].split("\t", 1)[1]),
        "entries disagree on the key width 4",
    ),
    "20-digit-key": (lambda t, line: _corrupt(t, line, 1, str(10**19)), "a key digit beyond int64"),
    "multiplicity-above-k^n": (lambda t, line: _corrupt(t, line, 4, str(2**7 + 1)), "a multiplicity above 2\\^7"),
    "order-swap": (_swap_with_previous, "duplicated or out of order"),
}


class TestBlockedLoad:
    """`load` parses a few lines at a time here, so that block edges fall
    between the lines of small dumps."""

    @pytest.mark.parametrize("rows", [1, 3, 4])
    @pytest.mark.parametrize("where", ["last-block", "second-block-first-line"])
    @pytest.mark.parametrize("kind", list(BLOCK_EDGE_DEFECTS))
    def test_defect_at_a_block_edge_keeps_its_message(self, kind, where, rows, monkeypatch):
        text = TestLoadValidation.TEXT
        # text line rows + 1 is body line rows, the first of the second block
        line = len(text.splitlines()) - 1 if where == "last-block" else rows + 1
        corrupt, message = BLOCK_EDGE_DEFECTS[kind]
        monkeypatch.setattr(lattice, "_BLOCK_ROWS", rows)
        with pytest.raises(LatticeFormatError, match=message):
            load(corrupt(text, line))

    @pytest.mark.parametrize("rows", [1, 3, 4])
    @pytest.mark.parametrize(
        "first, message",
        [
            ((1, str(2**62)), "digit out of range or nonpositive multiplicity"),
            ((0, "8"), "entries disagree with n=7 or with each other's totals"),
        ],
        ids=["range", "totals"],
    )
    def test_first_defect_decides_over_a_later_grammar_defect(self, first, message, rows, monkeypatch):
        # a range or totals defect on body line 1, and a stray byte on the last line
        text = TestLoadValidation.TEXT
        text = _corrupt(_corrupt(text, 2, *first), len(text.splitlines()) - 1, 1, "x")
        monkeypatch.setattr(lattice, "_BLOCK_ROWS", rows)
        with pytest.raises(LatticeFormatError, match=f"^{re.escape(message)}$"):
            load(text)

    def test_cells_of_every_length_parse_exactly(self):
        # at k = 1 the one entry (n, S) has multiplicity 1, so any n >= 1
        # and any S below 2**63 make a valid dump
        rng = random.Random(19)
        for digits in range(1, 20):
            for _ in range(8):
                n, s = (min(rng.randrange(max(1, 10 ** (digits - 1)), 10**digits), 2**63 - 1) for _ in "ns")
                lat = load(f"family=poisson k=1 n={n} logh=0x0.0p+0\n{n}\t{s}\t1\n")
                assert lat.key_array.tolist() == [[n, s]]

    @pytest.mark.parametrize("rows", [1, 3, lattice._BLOCK_ROWS])
    def test_multiplicities_of_every_length_round_trip(self, rows, monkeypatch):
        # build([0] * n, 2) has the multiplicities C(n, i), i = n_1 in key
        # order: cells of every length 1..18 by n = 62, where k**n = 2**62
        # keeps them int64
        monkeypatch.setattr(lattice, "_BLOCK_ROWS", rows)
        lengths = set()
        for n in range(1, 63):
            back = load(dump(build([0] * n, 2)))
            expected = [comb(n, i) for i in range(n + 1)]
            assert back.mult_array.dtype == np.int64
            assert back.mult_array.tolist() == expected
            lengths.update(len(str(m)) for m in expected)
        assert lengths == set(range(1, 19))

    @pytest.mark.parametrize("rows", [1, 3, 4])
    def test_blank_first_line_is_a_blank_line(self, rows, monkeypatch):
        # the key width is read from the first line, which has no cells here
        monkeypatch.setattr(lattice, "_BLOCK_ROWS", rows)
        with pytest.raises(LatticeFormatError, match="blank line"):
            load(TestLoadValidation.LINES[0] + "\n\n" + TestLoadValidation.BODY)

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
    def test_a_small_dump_of_an_absurd_k_is_a_format_error(self):
        # 400 KB: the header says k = 10**5 and n = 1, and one line holds
        # 200,001 cells; packing them takes memory in proportion to the
        # cells, so the conservation check is reached under the cap
        probe = (
            "import sys\n"
            "from mixexact import LatticeFormatError, load\n"
            "k = 10**5\n"
            "text = f'family=poisson k={k} n=1 logh=0x0.0p+0\\n1\\t0\\t' + '0\\t' * (2 * (k - 1)) + '1\\n'\n"
            "try:\n"
            "    load(text)\n"
            "except LatticeFormatError as exc:\n"
            "    print(len(text.encode()), exc)\n"
        )
        proc = run_capped("-c", probe)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "400044 dump violates conservation: total 1 != 100000^1\n"

    @pytest.mark.parametrize("rows", [1, 3, 4])
    def test_conservation_sum_carries_across_blocks(self, rows, monkeypatch):
        # every multiplicity is at most k**n = 2**62, and their sum
        # 2**64 + 2**62 is k**n modulo 2**64; 58 of them have their low 31
        # bits all set, so the sum of the low halves carries
        header, *lines = dump(build([0] * 62, 2)).splitlines()
        low = 2**31 - 1
        mults = [low] * 58 + [2**62] * 4 + [2**62 - 58 * low]
        assert len(mults) == len(lines) and sum(mults) > 2**63 and sum(mults) % 2**64 == 2**62
        assert sum(m & low for m in mults) >= 2**31
        lines = [line.rsplit("\t", 1)[0] + f"\t{m}" for line, m in zip(lines, mults)]
        monkeypatch.setattr(lattice, "_BLOCK_ROWS", rows)
        with pytest.raises(LatticeFormatError, match="conservation"):
            load("\n".join([header, *lines]) + "\n")


class TestDumpLoad:
    def test_round_trip_is_byte_identical(self):
        lat = build(WORKED_DATA, 2)
        text = dump(lat)
        assert dump(load(text)) == text

    def test_round_trip_preserves_content(self):
        lat = build([2, 0, 3, 3], 3)
        loaded = load(dump(lat))
        assert loaded.family == lat.family
        assert loaded.k == lat.k
        assert loaded.n == lat.n
        assert loaded.log_base == lat.log_base
        assert dict(loaded.entries) == dict(lat.entries)

    def test_a_negative_zero_header_loads(self):
        # log h summed in sequence gave -0.0 where every term is -0.0; the
        # exact sum is +0.0, as math.fsum's, and such a dump still loads
        lat = build([0, 1, 0], 2)
        text = dump(lat)
        assert text.startswith("family=poisson k=2 n=3 logh=0x0.0p+0\n")
        loaded = load(text.replace("logh=0x0.0p+0", "logh=-0x0.0p+0", 1))
        assert loaded.log_base.hex() == "0x0.0p+0"
        assert dump(loaded) == text

    def test_multinomial_round_trip(self):
        lat = build([(1, 2), (0, 3), (2, 1)], 2)
        assert dump(load(dump(lat))) == dump(lat)

    def test_header_format(self):
        lat = build([0, 1], 2)
        header = dump(lat).splitlines()[0]
        assert header.startswith("family=poisson k=2 n=2 logh=")

    def test_load_rejects_malformed_header(self):
        with pytest.raises(ValueError):
            load("not a header\n1\t2\t3\n")

    def test_load_rejects_broken_conservation(self):
        lat = build([0, 1], 2)
        lines = dump(lat).splitlines()
        lines[1] = lines[1].rsplit("\t", 1)[0] + "\t5"  # corrupt a multiplicity
        with pytest.raises(ValueError):
            load("\n".join(lines) + "\n")

    def test_load_rejects_empty_text(self):
        with pytest.raises(ValueError):
            load("")


class TestDirectConstruction:
    def test_only_the_fold_and_load_make_lattices(self):
        with pytest.raises(TypeError):
            StatLattice("poisson", 2, 0, {(0, 0, 0, 0): 1}, 0.0)

    def test_prior_only_lattice(self):
        # n=0 is representable: one all-zero entry, loaded from its dump
        lat = load(PRIOR_ONLY)
        assert lat.distinct_count() == 1
        assert lat.total_count() == 1
        assert lat.slot_width == 2
