"""Distinct allocation sufficient statistics with exact multiplicities.

Instead of summing over all k**n component allocations, the engine tracks
the distinct values of the complete-data sufficient statistic
(n_1, S_1, ..., n_k, S_k) together with the exact number of allocations
mapping to each value. Absorbing one observation sends every entry to k
successors; colliding successors add their multiplicities. Conservation
(they always sum to k**n) holds as exact integer arithmetic: while
k**n < 2**63 no multiplicity and no partial sum of a merge can exceed k**n,
so they are int64; from the step where k**n reaches 2**63 they are Python
ints in an object array. Only the dtype changes, never the code path.

Keys are held as packed codes, in lexicographic order. Every key of a
lattice shares its w column totals (n for the counts, one total per
aggregate), so a mixed radix of total + 1 per column packs a key with no
carry. The last slot is dropped, since the totals determine it, and the
other (k - 1) * w columns pack into int64 words, slot 0 most significant,
so code order is key order; one word holds them whenever the radix product
fits, and wider keys use several words on the same path. At rest a lattice
is its (W, E) code words, the radix, the totals and the multiplicities.

`build` and `extend` run one fold over the codes. Absorbing x into slot j
adds one constant per word (zero for the dropped slot), so a step is k
sorted runs of the codes, one stable sort that merges them, and one grouped
sum of the multiplicities; the fold ends on codes, with no decode. A key
column is decoded where a layer reads it, a block of entries at a time
(`key_blocks`) or one slot's whole columns (`slots`): a digit is
q - (q // r) * r of the quotient q left by the digit below it, and a
last-slot column is the totals minus the other slots.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import families
from .errors import LatticeFormatError, ResourceLimitError, UnsupportedFamilyError

DEFAULT_ENTRY_BUDGET = 5_000_000

# canonical flat key layout: (n_1, *S_1, n_2, *S_2, ..., n_k, *S_k)
Key = tuple[int, ...]

_WORD_SPAN = 2**63  # codes and place values of one int64 word stay below this
# digits stay below _WORD_SPAN / k, so no sum over the k slots of a column wraps
_INT64_DIGITS = 19  # decimal digits of the largest int64, 2**63 - 1
# entries that a layer decodes, dump writes, load parses and the fold
# compares in sorted order at a time, so their buffers stay small. No
# result depends on it
_BLOCK_ROWS = 2**12
_ZERO, _TAB, _NEWLINE = ord("0"), ord("\t"), ord("\n")
_UNITS = 2**1074  # every finite double is a whole number of units 2**-1074
_FRONT = 18  # bytes before a parsed block: the 18 places in front of a 19-digit cell's last digit


class StatLattice:
    """Immutable sorted lattice of packed keys with exact multiplicities.

    At rest it holds `codes`, the (W, E) int64 code words of its keys in
    lexicographic order, the mixed `radix` of the (k - 1) * w packed
    columns, the w column `totals` every key shares, and `mult_array`, the
    matching multiplicities: int64 while k**n < 2**63, an object array of
    Python ints from there on (`_mult_dtype`). `tolist()` gives Python ints
    either way. `key_array` is the (E, k*w) int64 key array, decoded on each
    access and read-only. A lattice comes from the fold (`init`, `extend`,
    `build`) or from `load`, which checks every invariant of the text it
    parses; both hand their codes to `_from_codes`, which freezes them.
    """

    __slots__ = ("family", "k", "n", "codes", "radix", "totals", "mult_array", "log_h_units")

    @classmethod
    def _from_codes(cls, family, k, n, codes, radix, totals, mults, log_h_units) -> "StatLattice":
        lat = cls.__new__(cls)
        codes.flags.writeable = mults.flags.writeable = False
        values = (family, k, n, codes, tuple(radix), tuple(totals), mults, log_h_units)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(lat, name, value)
        return lat

    @property
    def log_base(self) -> float:
        """log h of the data: `log_h_units`, the exact sum of the terms in units
        of 2**-1074, rounded once by int true division, as `math.fsum` rounds."""
        return self.log_h_units / _UNITS

    def __setattr__(self, name, value):
        raise AttributeError(f"StatLattice is immutable; cannot set {name!r}")

    @property
    def slot_width(self) -> int:
        return len(self.totals)

    @property
    def categories(self) -> int | None:
        if self.family != "multinomial":
            return None
        return self.slot_width - 1

    @property
    def key_array(self) -> np.ndarray:
        """(E, k*w) int64 keys in lexicographic row order, decoded on each
        access: the read-only transpose of one C-contiguous (k*w, E) block."""
        columns = np.empty((self.k * self.slot_width, self.distinct_count()), dtype=np.int64)
        keys = _decode(self.codes, _word_places(self.radix), self.radix, self.totals, columns).T
        keys.flags.writeable = False
        return keys

    def key_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Each block of `_BLOCK_ROWS` entries, in order, as its slice of the
        entries and its (k*w, rows) int64 key columns, decoded into one
        buffer that the next block overwrites: a reader copies what it keeps."""
        places, size = _word_places(self.radix), self.distinct_count()
        buffer = np.empty((self.k * self.slot_width, min(_BLOCK_ROWS, size)), dtype=np.int64)
        for lo in range(0, size, _BLOCK_ROWS):
            codes = self.codes[:, lo : lo + _BLOCK_ROWS]
            columns = buffer[:, : codes.shape[1]]
            yield slice(lo, lo + codes.shape[1]), _decode(codes, places, self.radix, self.totals, columns)

    def slots(self, part: slice = slice(None)) -> Iterator[np.ndarray]:
        """Each slot's key columns `part` of range(w), whole-length, slot 0
        first, as one (len, E) int64 array that the next slot overwrites:
        the first k - 1 decoded (`_unpack`), the last the totals less the
        others."""
        columns, w, size = range(self.slot_width)[part], self.slot_width, self.distinct_count()
        last = np.empty((len(columns), size), dtype=np.int64)
        last[...] = np.array([self.totals[c] for c in columns], dtype=np.int64)[:, None]
        slot, high = np.empty_like(last), np.empty(size, dtype=np.int64)
        places = _word_places(self.radix)
        for j in range(self.k - 1):
            _unpack(self.codes, places, self.radix, j * w + columns.start, j * w + columns.stop, slot, high)
            last -= slot
            yield slot
        del slot, high
        yield last

    @property
    def entries(self) -> Mapping[Key, int]:
        """Read-only {key tuple: multiplicity} view, built on demand."""
        keys = map(tuple, self.key_array.tolist())
        return MappingProxyType(dict(zip(keys, self.mult_array.tolist())))

    def distinct_count(self) -> int:
        return self.codes.shape[1]

    def total_count(self) -> int:
        """Σμ, exact: `sum()` of an object array's Python ints; int64 ones are
        below 2**63, so below 2**31 entries no sum of their 31-bit halves wraps."""
        mults = self.mult_array
        if mults.dtype == object:
            return sum(mults.tolist())
        return (int(np.sum(mults >> 31)) << 31) + int(np.sum(mults & (2**31 - 1)))


def _mult_dtype(k: int, n: int):
    """int64 while every multiplicity and merge sum (at most k**n) fits, else object."""
    return np.int64 if k == 1 or (n < 64 and k**n < _WORD_SPAN) else object


def log_multiplicities(mults: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """`math.log` of the multiplicities of a lattice's `mult_array`, as a
    function of any block of them, one call per distinct float image.

    For an int within the float range `math.log(m)` is `log(float(m))`, so
    equal images have equal logs. Where the largest int64 multiplicity is
    below their count, a table over 0..max holds the log of each one
    present, and a block gathers from it. Elsewhere each block logs its own
    distinct images (`families.per_distinct`): int64 multiplicities sort as
    they are, Python ints fast as their float images, and only where one
    lies beyond the float range as exact ints.
    """
    if mults.dtype == np.int64 and int(mults.max()) < len(mults):
        table = np.zeros(int(mults.max()) + 1)
        present = np.zeros(len(table), dtype=bool)
        present[mults] = True
        distinct = np.flatnonzero(present)
        table[distinct] = np.fromiter(map(math.log, distinct.tolist()), float, distinct.size)
        return table.take

    def per_block(block: np.ndarray) -> np.ndarray:
        try:
            images = block if block.dtype == np.int64 else block.astype(np.float64)
        except OverflowError:
            images = block
        return families.per_distinct(math.log, images)

    return per_block


def _units(x: float) -> int:
    """A finite double as an exact whole number of units 2**-1074."""
    num, den = x.as_integer_ratio()
    return num * (_UNITS // den)


def _word_places(radix: Sequence[int]) -> np.ndarray:
    """Mixed-radix place values that pack key columns into int64 words.

    Row i holds word i's place value for each column and zero for columns
    outside it; word 0 holds the most significant columns. A word closes
    when one more column would let its codes or its place values reach
    2**63. With no column (k = 1) there is one word, and every code is 0.
    """
    words = []
    place = np.zeros(len(radix), dtype=np.int64)
    span = 1
    for c in range(len(radix) - 1, -1, -1):
        if span * radix[c] >= _WORD_SPAN:
            words.append(place)
            place = np.zeros(len(radix), dtype=np.int64)
            span = 1
        place[c] = span
        span *= radix[c]
    words.append(place)
    return np.array(words[::-1])


def _unpack(codes: np.ndarray, places: np.ndarray, radix: Sequence[int], lo: int, hi: int, out, high) -> None:
    """Packed key columns lo..hi - 1 of (W, B) code words packed by `places`,
    into rows 0.. of `out`, with `high` one scratch row.

    Within a word the requested digits come least significant first, the
    last over its place value: each is q - (q // r) * r of the quotient q
    left by the one before, one floor division per column, and the new
    quotient goes to the row of the next column, which reads it in turn.
    The word's most significant column is the quotient left.
    """
    for word, place in zip(codes, places):
        columns = [c for c in range(lo, hi) if place[c]]
        if not columns:
            continue
        lead, q = int(np.flatnonzero(place)[0]), word
        if place[columns[-1]] != 1:
            q = np.floor_divide(word, place[columns[-1]], out=out[columns[-1] - lo])
        for c in reversed(columns):
            row = out[c - lo]
            if c == lead:
                if q is word:  # the word's one column, of place 1
                    row[...] = word
                break
            quotient = out[c - 1 - lo] if c > columns[0] else high
            np.floor_divide(q, radix[c], out=quotient)
            np.multiply(quotient, radix[c], out=high)
            np.subtract(q, high, out=row)
            q = quotient


def _decode(codes: np.ndarray, places: np.ndarray, radix: Sequence[int], totals: Sequence[int], out: np.ndarray):
    """The (k*w, B) int64 key columns of (W, B) code words packed by
    `places`, written into `out` with no other buffer: the packed columns
    by `_unpack`, with the first row of the last slot as its scratch, and
    then the last slot as the totals less the other slots."""
    kept, w = len(radix), len(totals)
    _unpack(codes, places, radix, 0, kept, out, out[kept])
    last = out[kept:]
    last[...] = np.array(totals, dtype=np.int64)[:, None]
    for j in range(kept // w):
        last -= out[j * w : (j + 1) * w]
    return out


def _increasing(codes: np.ndarray) -> bool:
    """Whether (W, E) code words increase strictly and lexicographically
    from entry to entry, word 0 deciding first."""
    tied = np.ones(codes.shape[1] - 1, dtype=bool)
    for word in codes:
        if np.any(tied & (word[1:] < word[:-1])):
            return False
        tied &= word[1:] == word[:-1]
    return not tied.any()


def _fresh(succ: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Whether each successor in sorted order differs from the one before.

    The (W, k*E) codes are gathered in sorted order a block of `_BLOCK_ROWS`
    at a time, each block overlapping the last by one code, so no sorted
    copy of the codes is ever whole.
    """
    fresh = np.zeros(len(order), dtype=bool)
    fresh[0] = True
    for lo in range(1, len(order), _BLOCK_ROWS):
        for word in np.take(succ, order[lo - 1 : lo + _BLOCK_ROWS], axis=1):
            fresh[lo : lo + _BLOCK_ROWS] |= word[1:] != word[:-1]
    return fresh


def _repack(lattice: StatLattice, places: np.ndarray) -> np.ndarray:
    """The lattice's keys as (W, E) codes under new place values, formed
    one packed key column at a time."""
    codes = np.zeros((len(places), lattice.distinct_count()), dtype=np.int64)
    old, digits, high = _word_places(lattice.radix), np.empty_like(codes[:1]), np.empty_like(codes[0])
    for c in range(places.shape[1]):
        word = np.flatnonzero(places[:, c])[0]
        _unpack(lattice.codes, old, lattice.radix, c, c + 1, digits, high)
        digits *= places[word, c]
        codes[word] += digits[0]
    return codes


def _fold(
    lattice: StatLattice, observations: Sequence, budget: int = DEFAULT_ENTRY_BUDGET
) -> StatLattice:
    """Absorb the observations in value order, merging colliding successors;
    log h is an exact sum, so no output and no error depends on their order."""
    family, k, w = lattice.family, lattice.k, lattice.slot_width
    # each observation is read once: R(x) for the shifts, log h(x) for log_h_units
    observed = sorted(families.observe(family, obs, lattice.categories) for obs in observations)
    stats = [(1, *r) for r, _ in observed]
    log_h_units = lattice.log_h_units + sum(_units(log_h) for _, log_h in observed)
    # every entry shares the column totals, and no digit outgrows its
    # column's final total, so radix total + 1 never carries
    totals = [t + sum(s[c] for s in stats) for c, t in enumerate(lattice.totals)]
    if max(totals) * k >= _WORD_SPAN:
        raise ValueError("a statistic digit would leave the int64 key range")
    radix = [t + 1 for t in totals] * (k - 1)  # the last slot is the totals minus the others
    places = _word_places(radix)
    codes = _repack(lattice, places)  # (W, E), word 0 most significant
    # shifts[i, :, j]: what absorbing observation i into slot j adds to each
    # word; the dropped last slot adds nothing
    shifts = np.zeros((len(stats), len(places), k), dtype=np.int64)
    shifts[:, :, :-1] = np.einsum("pjc,ic->ipj", places.reshape(len(places), k - 1, w), stats)
    mults, n = lattice.mult_array, lattice.n
    growth = [len(mults)]
    for shift in shifts:
        succ = (codes[:, None, :] + shift[:, :, None]).reshape(len(codes), -1)
        del codes
        # k sorted runs, which the stable sort under lexsort merges
        order = np.lexsort(succ[::-1])
        starts = np.flatnonzero(_fresh(succ, order))
        n += 1
        growth.append(len(starts))
        if len(starts) > budget:
            raise ResourceLimitError(
                f"entry budget {budget} exceeded at {len(starts)} entries after {n} observations",
                entry_count=len(starts),
                step=n,
                growth=tuple(growth),
            )
        codes = np.take(succ, order[starts], axis=1)
        del succ
        # successor i came from entry i mod E; to Python ints at the step
        # where k**n reaches 2**63, else no copy
        mults = mults.astype(_mult_dtype(k, n), copy=False).take(order, mode="wrap")
        del order
        mults = np.add.reduceat(mults, starts)
    return StatLattice._from_codes(family, k, n, codes, radix, totals, mults, log_h_units)


def init(first_obs, k: int, family: str | None = None) -> StatLattice:
    """Lattice of a single observation: k singleton entries, multiplicity 1."""
    return build([first_obs], k, family)


def extend(lattice: StatLattice, obs, budget: int = DEFAULT_ENTRY_BUDGET) -> StatLattice:
    """Absorb one observation: spawn k successors per entry, merge collisions."""
    return _fold(lattice, [obs], budget)


def build(
    data: Sequence,
    k: int,
    family: str | None = None,
    budget: int = DEFAULT_ENTRY_BUDGET,
) -> StatLattice:
    """Fold every observation into the n=0 lattice; the budget covers each step."""
    if len(data) == 0:
        raise ValueError("dataset must be non-empty")
    if k < 1:
        raise ValueError(f"component count must be >= 1, got {k}")
    if family is None:
        family = families.infer_family(data[0])
    if family == "normal":
        # real-valued statistics collide only within-partition; growth is
        # Bell-number-like, so enumeration goes through the oracle instead
        raise UnsupportedFamilyError("normal-family lattices are not supported; use the oracle")
    w = 1 + len(families.observe(family, data[0])[0])
    # the n=0 lattice: one all-zero key, totals 0, and log h = 0
    one = np.array([1], dtype=_mult_dtype(k, 0))
    radix = [1] * ((k - 1) * w)
    empty = StatLattice._from_codes(family, k, 0, np.zeros((1, 1), np.int64), radix, [0] * w, one, 0)
    return _fold(empty, data, budget)


def _header(family: str, k: int, n: int, log_base: float) -> str:
    return f"family={family} k={k} n={n} logh={log_base.hex()}\n"


def _cells(values: np.ndarray, sep: int, width: int = 0) -> np.ndarray:
    """values.shape + (width,) uint8 cells: each value's ASCII digits, NUL
    bytes for the rest and `sep` last. int64 values take one divmod plane per
    digit, right-aligned; Python ints (a 1-D object array) take `str`. The
    width defaults to the widest value's digits plus the separator."""
    if values.dtype == object:
        text = np.array([str(v) for v in values.tolist()], dtype=bytes)
        out = np.empty((len(text), text.itemsize + 1), dtype=np.uint8)
        out[:, :-1] = text.view(np.uint8).reshape(len(text), -1)
    else:
        width = width or len(str(int(values.max()))) + 1
        out = np.empty(values.shape + (width,), dtype=np.uint8)
        rest = values
        for i in range(width - 2, -1, -1):
            high = rest // 10
            digit = rest - high * 10 + _ZERO
            if i < width - 2:
                digit *= rest > 0  # a leading zero is NUL
            out[..., i] = digit
            rest = high
    out[..., -1] = sep
    return out


def dump(lattice: StatLattice) -> str:
    """Flat text form: header, then one sorted line per entry.

    Rows are written as bytes, one block of decoded keys at a time
    (`key_blocks`): a uint8 line buffer of fixed-width cells, digits and
    separators with NUL padding, whose NUL bytes `bytes.translate` deletes.
    No digit is above its column's total, so the largest total bounds every
    cell. Key cells come from a table over 0..that bound whose rows are
    padded to a power-of-two width, gathered one key column at a time, so
    the gather copies one word per cell; where the bound is not below the
    entry count the keys take divmod planes of their own instead.
    """
    mults = lattice.mult_array
    top = max(lattice.totals)
    if top < len(mults):
        width = 1 << len(str(top)).bit_length()  # a power of two above the digits
        table = _cells(np.arange(top + 1), _TAB, width).view(f"V{width}")[:, 0]
    else:
        width, table = len(str(top)) + 1, None
    key_bytes = lattice.k * lattice.slot_width * width
    blocks = [_header(lattice.family, lattice.k, lattice.n, lattice.log_base)]
    for part, columns in lattice.key_blocks():
        rows = columns.shape[1]
        mult_cells = _cells(mults[part], _NEWLINE)
        lines = np.empty((rows, key_bytes + mult_cells.shape[1]), dtype=np.uint8)
        lines[:, key_bytes:] = mult_cells
        if table is None:
            lines[:, :key_bytes] = _cells(columns.T, _TAB, width).reshape(rows, -1)
        else:
            cells = lines[:, :key_bytes].view(table.dtype)
            for c, column in enumerate(columns):  # one gather per key column
                cells[:, c] = table[column]
        blocks.append(lines.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(blocks)


def _cell_values(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray, longest: int) -> np.ndarray:
    """Unsigned values of the digit cells of `lengths` digits, at most
    `longest`, that end before the offsets `ends` of a parsed block.

    `buf` holds the block's bytes XOR '0', so its digits are 0..9, after
    `_FRONT` bytes of room. Each pass reads one decimal place, as `dump`
    writes one per divmod plane: it steps every cell's index one byte back
    from its last digit, and a place in front of a cell adds zero. A cell of
    more than 19 digits gets no meaningful value: the callers reject it by
    its length, or read it with `int`.
    """
    at = ends + (_FRONT - 1)
    value = buf.take(at).astype(np.uint64)
    for place in range(1, min(longest, _INT64_DIGITS)):
        at -= 1  # in place, so no place allocates an index array
        digit = buf.take(at)
        digit *= lengths > place  # masked as bytes, before the widening copy
        value += digit.astype(np.uint64) * np.uint64(10**place)
    return value


def _cell_error(raw: bytes, at: int) -> LatticeFormatError:
    """The error for the cell holding byte `at`, which is neither a digit nor a separator."""
    start = max(raw.rfind(b"\t", 0, at), raw.rfind(b"\n", 0, at)) + 1
    tab = raw.find(b"\t", at)
    end = raw.find(b"\n", at) if tab < 0 else min(tab, raw.find(b"\n", at))
    cell = raw[start:end].decode("ascii")
    if cell[:1] == "-" and cell[1:].isdigit():
        return LatticeFormatError("digit out of range or nonpositive multiplicity")
    return LatticeFormatError(f"malformed lattice entry: {cell!r}")


def _body_blocks(text: str, base: int) -> Iterator[tuple[bytes, int]]:
    """The body of a dump, its lines from character `base` on, as ASCII
    bytes `_BLOCK_ROWS` lines at a time: each block is a window of the text
    and the length of its first `_BLOCK_ROWS` lines, or all of the window
    where the body ends in it. A window starts half again as long as the
    last block and doubles until it holds a block, so no copy of the text
    is ever whole.
    """
    offset, size = base, _BLOCK_ROWS * (text.find("\n", base) + 1 - base)
    while offset < len(text):
        window = text[offset : offset + size].encode("ascii")
        ends = np.flatnonzero(np.frombuffer(window, dtype=np.uint8) == _NEWLINE)
        if len(ends) >= _BLOCK_ROWS:
            cut = int(ends[_BLOCK_ROWS - 1]) + 1
        elif offset + size >= len(text):
            cut = len(window)
        else:
            size *= 2
            continue
        yield window, cut
        offset += cut
        size = cut + cut // 2


def _parse_body(
    text: str, base: int, family: str, k: int, n: int
) -> tuple[np.ndarray, Iterator[tuple[slice, np.ndarray]]]:
    """The multiplicities of the entry lines of a dump, which start at
    character `base` of its text, and an iterator over their blocks of key
    columns, each held to dump's grammar.

    The lines are parsed in blocks of `_BLOCK_ROWS`, the rows dump writes at
    a time (`_body_blocks`). Each block yields its slice of the entries and
    its (k*w, rows) int64 key columns, in one buffer that the next block
    overwrites, and writes its multiplicities into the preallocated array, one cell column at a time, so the parse's
    temporaries are block-sized and most are column-sized. A block's checks
    run on its bytes, in one order: a stray byte, an empty cell, the key
    width (the first line's, checked in the first block), the line shape, a
    leading zero, then the value ranges, key columns first. The first
    defective block decides the message.
    """
    if not text.isascii():
        try:
            text.encode("ascii")
        except UnicodeEncodeError as exc:
            bad = exc.object[exc.start]
            raise LatticeFormatError(f"malformed lattice entry: non-ASCII {bad!r}") from exc
    if text[-1] != "\n":
        raise LatticeFormatError("malformed lattice entry: the last line has no newline")
    rows, width = text.count("\n", base), text.count("\t", base, text.find("\n", base))
    cells, w = width + 1, width // k
    wide = _mult_dtype(k, n) is object
    mults = np.empty(rows, dtype=object if wide else np.int64)
    buffer = np.empty((width, min(rows, _BLOCK_ROWS)), dtype=np.int64)

    def blocks():
        for start, (raw, size) in zip(range(0, rows, _BLOCK_ROWS), _body_blocks(text, base)):
            stop = min(start + _BLOCK_ROWS, rows)
            # digit bytes XOR '0' are 0..9 and every other byte is above 9; the
            # bytes in front read as separators and give a first cell's places room
            buf = np.empty(_FRONT + size, dtype=np.uint8)
            buf[:_FRONT] = _NEWLINE ^ _ZERO
            digit = np.bitwise_xor(np.frombuffer(raw, np.uint8, size), _ZERO, out=buf[_FRONT:])
            opens = buf[_FRONT - 1 :] > 9  # opens[i]: byte i follows a separator
            sep = opens[1:]
            # seps[0] = -1 stands for the separator in front of the block; cell i
            # lies between the separators at seps[i] and seps[i + 1]
            seps = np.flatnonzero(opens)
            seps -= 1
            if len(seps) - 1 != np.count_nonzero(digit == _TAB ^ _ZERO) + stop - start:
                stray = sep & (digit != _TAB ^ _ZERO) & (digit != _NEWLINE ^ _ZERO)
                raise _cell_error(raw, int(np.flatnonzero(stray)[0]))
            if np.any(sep & opens[:-1]):
                raise LatticeFormatError("malformed lattice entry: an empty cell or a blank line")
            if start == 0 and (width != k * w or (w == 2) != (family == "poisson") or w < 2):
                raise LatticeFormatError(f"key width {width} does not fit a {family} lattice with k={k}")
            if len(seps) - 1 != (stop - start) * cells or np.any(digit[seps[cells::cells]] != _NEWLINE ^ _ZERO):
                raise LatticeFormatError(f"entries disagree on the key width {width}")
            lead = digit[:-1] == 0
            lead &= opens[:-2]
            lead &= digit[1:] <= 9
            if lead.any():
                raise LatticeFormatError("malformed lattice entry: a leading zero")

            # one cell column at a time: (rows,) temporaries, and each column
            # takes as many place passes as its own longest cell has digits
            columns = buffer[:, : stop - start]
            opened, ends = seps[:-1].reshape(-1, cells), seps[1:].reshape(-1, cells)
            for c in range(width if wide else cells):
                lengths = ends[:, c] - opened[:, c]
                lengths -= 1
                longest = int(lengths.max())
                values = _cell_values(buf, ends[:, c], lengths, longest) if longest <= _INT64_DIGITS else None
                if c < width:
                    # a 19-digit key may leave int64, a longer one does
                    if values is None or (longest == _INT64_DIGITS and values.max() >= _WORD_SPAN):
                        raise LatticeFormatError("malformed lattice entry: a key digit beyond int64")
                    columns[c] = values
                elif values is None or values.max() > k**n:
                    raise LatticeFormatError(f"dump violates conservation: a multiplicity above {k}^{n}")
                else:
                    mults[start:stop] = values
            if wide:
                spans = zip((ends[:, -2] + 1).tolist(), ends[:, -1].tolist())
                try:
                    mults[start:stop] = np.fromiter((int(raw[a:b]) for a, b in spans), object, stop - start)
                except ValueError as exc:  # more digits than int() converts
                    raise LatticeFormatError(f"malformed lattice entry: {exc}") from exc
            yield slice(start, stop), columns

    return mults, blocks()


# the messages of `load`'s checks that are held until every block has parsed, first first
_HELD = (
    "digit out of range or nonpositive multiplicity",
    "entries disagree with n={n} or with each other's totals",
    "an empty slot carries a nonzero aggregate",
)


def _held_failure(columns: np.ndarray, mults: np.ndarray, k: int, totals: list[int]) -> int:
    """The first of the held checks (`_HELD`) that a parsed block of
    (k*w, rows) key columns fails, as an index, or their count where it
    passes all: every digit and multiplicity in range, each column of the
    slots adding up to the first entry's total, and no empty slot with a
    nonzero aggregate."""
    w = len(totals)
    if int(columns.max()) * k >= _WORD_SPAN or mults.min() < 1:
        return 0
    for c in range(w):
        if np.any(columns[c::w].sum(axis=0) != totals[c]):
            return 1
    for j in range(0, k * w, w):
        if np.any((columns[j] == 0) & columns[j + 1 : j + w].any(axis=0)):
            return 2
    return 3


def load(text: str) -> StatLattice:
    """Inverse of dump; raises LatticeFormatError on any text dump cannot write.

    The grammar is dump's exactly: its header line, then one line per entry
    of k*w + 1 tab-separated cells, each `0` or ASCII digits without a
    leading zero, every line ending in a single `\\n`. The body is parsed as
    bytes in blocks of `_BLOCK_ROWS` lines (`_parse_body`), each checked
    and converted on its own, one decimal place per pass as `dump` writes
    one per divmod plane (`_cell_values`), and packed into the codes at
    once. A block's range, totals and empty-slot checks (`_held_failure`)
    are held until every block has parsed; then the first of them that any
    block failed raises, else the order check runs on the code words and
    the conservation check on the multiplicities. A text with one defect
    gets that defect's message; in a text with several grammar or range
    defects, the first defective block decides.
    """
    if not text:
        raise LatticeFormatError("empty lattice dump")
    # the body is parsed where it lies in the text, never sliced off it
    newline = text.find("\n")
    head = text if newline < 0 else text[:newline]
    try:
        header = dict(item.split("=", 1) for item in head.split(" "))
        family, k, n = header["family"], int(header["k"]), int(header["n"])
        log_base = float.fromhex(header["logh"])
    except (KeyError, ValueError) as exc:
        raise LatticeFormatError(f"malformed lattice header: {head!r}") from exc
    if family not in ("poisson", "multinomial"):
        raise LatticeFormatError(f"family {family!r} has no lattice")
    if k < 1 or n < 0 or not math.isfinite(log_base):
        raise LatticeFormatError(f"invalid lattice header: {head!r}")
    if head + "\n" != _header(family, k, n, log_base):
        raise LatticeFormatError(f"malformed lattice header: {head!r}")
    if newline in (-1, len(text) - 1):
        raise LatticeFormatError("lattice dump has no entries")
    mults, blocks = _parse_body(text, newline + 1, family, k, n)

    passed = failed = len(_HELD)
    codes = None
    for part, columns in blocks:
        if part.start == 0:
            # every entry shares the first one's column totals, n the first
            first = columns[:, 0].tolist()
            w = len(first) // k
            totals = [n, *(sum(first[c::w]) for c in range(1, w))]
        if failed:  # no check outranks the first
            failed = min(failed, _held_failure(columns, mults[part], k, totals))
        if failed == passed:
            if codes is None:
                radix = [t + 1 for t in totals] * (k - 1)
                places = _word_places(radix)
                codes = np.empty((len(places), len(mults)), dtype=np.int64)
            codes[:, part] = places @ columns[: len(radix)]
    if failed < passed:
        raise LatticeFormatError(_HELD[failed].format(n=n))
    # with digits in range and shared totals, code order is key order
    if not _increasing(codes):
        raise LatticeFormatError("keys are duplicated or out of order")
    lat = StatLattice._from_codes(family, k, n, codes, radix, totals, mults, _units(log_base))
    total = lat.total_count()
    # the bit-length test keeps k**n cheap when n is absurdly large
    if (k > 1 and n * math.log2(k) > total.bit_length() + 1) or total != k**n:
        raise LatticeFormatError(f"dump violates conservation: total {total} != {k}^{n}")
    return lat
