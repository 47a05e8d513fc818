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

Keys live in one (E, k*w) int64 array in lexicographic row order, stored
by column: its memory is one C-contiguous (k*w, E) block and `key_array` is
that block's transpose, so each layer reads a key column as one contiguous
run. `build` and `extend` run one fold over packed codes. It fixes a mixed
radix once, from the column totals the fold will reach: n+1 for counts and
total+1 for each aggregate, so no digit ever carries. The last slot is
dropped, since the shared totals determine it, and the other slots pack
into int64 words, slot 0 most significant, so code order is key order; one
word holds them whenever the radix product fits, and wider keys use several
words on the same path. Absorbing x into slot j adds one constant per word (zero for the
dropped slot), so a step is k sorted runs of the codes, one stable sort
that merges them, and one grouped sum of the multiplicities. Keys are
decoded once, at the end, one divmod per key column, with the last slot
formed as the totals minus the others.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import families
from .errors import LatticeFormatError, ResourceLimitError, UnsupportedFamilyError

DEFAULT_ENTRY_BUDGET = 5_000_000

# canonical flat key layout: (n_1, *S_1, n_2, *S_2, ..., n_k, *S_k)
Key = tuple[int, ...]

_WORD_SPAN = 2**63  # codes of one int64 word stay below this
# digits stay below _WORD_SPAN / k, so no sum over the k slots of a column wraps
_INT64_DIGITS = 19  # decimal digits of the largest int64, 2**63 - 1
# rows that dump writes, load parses and the fold compares in sorted order at
# a time, so their buffers stay small
_BLOCK_ROWS = 2**14
_ZERO, _TAB, _NEWLINE = ord("0"), ord("\t"), ord("\n")
_UNITS = 2**1074  # every finite double is a whole number of units 2**-1074
_FRONT = 18  # bytes before a parsed block: the 18 places in front of a 19-digit cell's last digit


class StatLattice:
    """Immutable sorted key array with exact multiplicities.

    `key_array` is (E, k*w) int64 in lexicographic row order, the
    transpose of one C-contiguous (k*w, E) block of key columns, and
    `mult_array` holds the matching multiplicities: int64 while k**n < 2**63,
    an object array of Python ints from there on (`_mult_dtype`). `tolist()`
    gives Python ints either way. A lattice comes from the fold (`init`,
    `extend`, `build`) or from `load`, which checks every invariant of the
    text it parses; both hand their key columns and multiplicities to
    `_from_arrays`, which freezes them.
    """

    __slots__ = ("family", "k", "n", "key_array", "mult_array", "log_h_units")

    @classmethod
    def _from_arrays(cls, family, k, n, columns, mults, log_h_units) -> "StatLattice":
        lat = cls.__new__(cls)
        keys = columns.T
        keys.flags.writeable = mults.flags.writeable = False
        for name, value in zip(cls.__slots__, (family, k, n, keys, mults, log_h_units)):
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
        return self.key_array.shape[1] // self.k

    @property
    def categories(self) -> int | None:
        if self.family != "multinomial":
            return None
        return self.slot_width - 1

    @property
    def entries(self) -> Mapping[Key, int]:
        """Read-only {key tuple: multiplicity} view, built on demand."""
        keys = map(tuple, self.key_array.tolist())
        return MappingProxyType(dict(zip(keys, self.mult_array.tolist())))

    def distinct_count(self) -> int:
        return len(self.key_array)

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


def log_multiplicities(mults: np.ndarray) -> np.ndarray:
    """`math.log` of each multiplicity of a lattice's `mult_array`, one call
    per distinct float image.

    For an int within the float range `math.log(m)` is `log(float(m))`, so
    equal images have equal logs. int64 multiplicities sort as they are,
    with no float copy alive beside the sort's own; Python ints sort fast
    as their float images, and only one beyond the float range sorts as an
    exact int.
    """
    try:
        images = mults if mults.dtype == np.int64 else mults.astype(np.float64)
    except OverflowError:
        images = mults
    return families.per_distinct(math.log, images)


def _units(x: float) -> int:
    """A finite double as an exact whole number of units 2**-1074."""
    num, den = x.as_integer_ratio()
    return num * (_UNITS // den)


def _word_places(radix: list[int]) -> np.ndarray:
    """Mixed-radix place values that pack key columns into int64 words.

    Row i holds word i's place value for each column and zero for columns
    outside it; word 0 holds the most significant columns. A word closes
    when one more column would let its codes reach 2**63.
    """
    words = []
    place = np.zeros(len(radix), dtype=np.int64)
    span = 1
    for c in range(len(radix) - 1, -1, -1):
        if span * radix[c] > _WORD_SPAN:
            words.append(place)
            place = np.zeros(len(radix), dtype=np.int64)
            span = 1
        place[c] = span
        span *= radix[c]
    words.append(place)
    return np.array(words[::-1])


def _increasing(columns: np.ndarray) -> bool:
    """Whether (C, E) key columns increase strictly and lexicographically
    from entry to entry, row 0 deciding first."""
    tied = np.ones(columns.shape[1] - 1, dtype=bool)
    for column in columns:
        if np.any(tied & (column[1:] < column[:-1])):
            return False
        tied &= column[1:] == column[:-1]
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
    first = lattice.key_array[0].tolist()
    totals = [sum(first[c::w]) + sum(s[c] for s in stats) for c in range(w)]
    if max(totals) * k >= _WORD_SPAN:
        raise ValueError("a statistic digit would leave the int64 key range")
    kept = (k - 1) * w  # the last slot is the totals minus the others
    radix = [t + 1 for t in totals] * (k - 1)
    places = _word_places(radix)
    codes = places @ lattice.key_array.T[:kept]  # (W, E), word 0 most significant
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

    # decode once, in place, so no copy of the codes sits beside the key
    # columns: the codes' buffer grows into the columns, word i in row i.
    # From the last word back, each gives up its digits least significant
    # first, one divmod per column, into rows that hold no word still to
    # come (word i's columns start at row i or later); the quotient left
    # is its first digit
    codes.resize((k * w, len(mults)), refcheck=False)
    columns = codes
    for i in range(len(places) - 1, -1, -1):
        first, *rest = np.flatnonzero(places[i]).tolist() or [i]  # k = 1 packs no column
        for c in reversed(rest):
            np.divmod(columns[i], radix[c], out=(columns[i], columns[c]))
        if first != i:
            columns[first] = columns[i]
    last = columns[kept:]
    last[:] = np.array(totals)[:, None]
    for j in range(k - 1):
        last -= columns[j * w : (j + 1) * w]
    return StatLattice._from_arrays(family, k, n, columns, mults, log_h_units)


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
    # the n=0 lattice: one all-zero key, and log h = 0
    one = np.array([1], dtype=_mult_dtype(k, 0))
    empty = StatLattice._from_arrays(family, k, 0, np.zeros((k * w, 1), np.int64), one, 0)
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

    Rows are written as bytes, one block at a time: a uint8 line buffer of
    fixed-width cells, digits and separators with NUL padding, whose NUL
    bytes `bytes.translate` deletes. Key cells come from a table over
    0..max(key) whose rows are padded to a power-of-two width, gathered one
    key column at a time, so the gather copies one word per cell; a key
    array whose largest digit is not below its row count takes divmod
    planes of its own instead.
    """
    keys, mults = lattice.key_array, lattice.mult_array
    top = int(keys.max())
    if top < len(keys):
        width = 1 << len(str(top)).bit_length()  # a power of two above the digits
        table = _cells(np.arange(top + 1), _TAB, width).view(f"V{width}")[:, 0]
    else:
        width, table = len(str(top)) + 1, None
    key_bytes = keys.shape[1] * width
    blocks = [_header(lattice.family, lattice.k, lattice.n, lattice.log_base)]
    for start in range(0, len(keys), _BLOCK_ROWS):
        part = keys[start : start + _BLOCK_ROWS]
        mult_cells = _cells(mults[start : start + _BLOCK_ROWS], _NEWLINE)
        lines = np.empty((len(part), key_bytes + mult_cells.shape[1]), dtype=np.uint8)
        lines[:, key_bytes:] = mult_cells
        if table is None:
            lines[:, :key_bytes] = _cells(part, _TAB, width).reshape(len(part), -1)
        else:
            cells = lines[:, :key_bytes].view(table.dtype)
            for c, column in enumerate(part.T):  # one gather per key column
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


def _parse_body(text: str, base: int, family: str, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(k*w, E) key columns and the multiplicities of the entry lines of a
    dump, which start at character `base` of its text, held to dump's grammar.

    The lines are parsed in blocks of `_BLOCK_ROWS`, the rows dump writes at
    a time, and each block writes its values straight into the preallocated
    columns and multiplicities, one cell column at a time, so the parse's
    temporaries are block-sized and most are column-sized. A block's checks
    run on its bytes, in one order: a stray byte, an empty cell, the key
    width (the first line's, checked in the first block), the line shape, a
    leading zero, then the value ranges, key columns first. The first
    defective block decides the message.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start]
        raise LatticeFormatError(f"malformed lattice entry: non-ASCII {bad!r}") from exc
    data = np.frombuffer(raw, dtype=np.uint8, offset=base)
    if data[-1] != _NEWLINE:
        raise LatticeFormatError("malformed lattice entry: the last line has no newline")
    line_ends = np.flatnonzero(data == _NEWLINE)
    rows, width = len(line_ends), raw.count(b"\t", base, base + int(line_ends[0]))
    # the offsets where the blocks start, then the body's end; the line
    # ends go before the columns are allocated
    cuts = [0, *(line_ends[_BLOCK_ROWS - 1 : -1 : _BLOCK_ROWS] + 1).tolist(), len(data)]
    del line_ends
    cells, w = width + 1, width // k
    wide = _mult_dtype(k, n) is object
    columns = np.empty((width, rows), dtype=np.int64)
    mults = np.empty(rows, dtype=object if wide else np.int64)
    for start, offset, end in zip(range(0, rows, _BLOCK_ROWS), cuts, cuts[1:]):
        stop = min(start + _BLOCK_ROWS, rows)
        # digit bytes XOR '0' are 0..9 and every other byte is above 9; the
        # bytes in front read as separators and give a first cell's places room
        buf = np.empty(_FRONT + end - offset, dtype=np.uint8)
        buf[:_FRONT] = _NEWLINE ^ _ZERO
        digit = np.bitwise_xor(data[offset:end], _ZERO, out=buf[_FRONT:])
        opens = buf[_FRONT - 1 :] > 9  # opens[i]: byte i follows a separator
        sep = opens[1:]
        # seps[0] = -1 stands for the separator in front of the block; cell i
        # lies between the separators at seps[i] and seps[i + 1]
        seps = np.flatnonzero(opens)
        seps -= 1
        if len(seps) - 1 != np.count_nonzero(digit == _TAB ^ _ZERO) + stop - start:
            stray = sep & (digit != _TAB ^ _ZERO) & (digit != _NEWLINE ^ _ZERO)
            raise _cell_error(raw, base + offset + int(np.flatnonzero(stray)[0]))
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
                columns[c, start:stop] = values
            elif values is None or values.max() > k**n:
                raise LatticeFormatError(f"dump violates conservation: a multiplicity above {k}^{n}")
            else:
                mults[start:stop] = values
        if wide:
            at = base + offset
            spans = zip((ends[:, -2] + at + 1).tolist(), (ends[:, -1] + at).tolist())
            try:
                mults[start:stop] = np.fromiter((int(raw[a:b]) for a, b in spans), object, stop - start)
            except ValueError as exc:  # more digits than int() converts
                raise LatticeFormatError(f"malformed lattice entry: {exc}") from exc
    return columns, mults


def load(text: str) -> StatLattice:
    """Inverse of dump; raises LatticeFormatError on any text dump cannot write.

    The grammar is dump's exactly: its header line, then one line per entry
    of k*w + 1 tab-separated cells, each `0` or ASCII digits without a
    leading zero, every line ending in a single `\\n`. The body is parsed as
    bytes in blocks of `_BLOCK_ROWS` lines (`_parse_body`), each checked
    and converted on its own, one decimal place per pass as `dump` writes
    one per divmod plane (`_cell_values`). Once every block has parsed, the
    totals, empty-slot, order and conservation checks run on the whole key
    columns and multiplicities. A text with one defect gets that defect's
    message; in a text with several grammar or range defects, the first
    defective block decides.
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
    columns, mults = _parse_body(text, newline + 1, family, k, n)

    w = len(columns) // k
    if int(columns.max()) * k >= _WORD_SPAN or mults.min() < 1:
        raise LatticeFormatError("digit out of range or nonpositive multiplicity")
    # column c of every slot adds up to the shared total of column c
    for c in range(w):
        sums = columns[c::w].sum(axis=0)
        if np.any(sums != (n if c == 0 else sums[0])):
            raise LatticeFormatError(f"entries disagree with n={n} or with each other's totals")
    for j in range(0, k * w, w):
        if np.any((columns[j] == 0) & columns[j + 1 : j + w].any(axis=0)):
            raise LatticeFormatError("an empty slot carries a nonzero aggregate")
    if not _increasing(columns):
        raise LatticeFormatError("keys are duplicated or out of order")
    lat = StatLattice._from_arrays(family, k, n, columns, mults, _units(log_base))
    total = lat.total_count()
    # the bit-length test keeps k**n cheap when n is absurdly large
    if (k > 1 and n * math.log2(k) > total.bit_length() + 1) or total != k**n:
        raise LatticeFormatError(f"dump violates conservation: total {total} != {k}^{n}")
    return lat
