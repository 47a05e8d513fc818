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

Keys live in one (E, k*w) int64 array in lexicographic row order. `build`
and `extend` run one fold over packed codes. It fixes a mixed radix once,
from the column totals the fold will reach: n+1 for counts and total+1 for
each aggregate, so no digit ever carries. The last slot is dropped, since
the shared totals determine it, and the other slots pack into int64 words,
slot 0 most significant, so code order is key order; one word holds them
whenever the radix product fits, and wider keys use several words on the
same path. Absorbing x into slot j adds one constant per word (zero for the
dropped slot), so a step is k sorted runs of the codes, one stable sort
that merges them, and one grouped sum of the multiplicities. Keys are
decoded once, at the end.
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
_BLOCK_ROWS = 2**14  # dump writes this many rows at a time; their buffers stay cache-sized
_ZERO, _TAB, _NEWLINE = ord("0"), ord("\t"), ord("\n")


class StatLattice:
    """Immutable sorted key array with exact multiplicities.

    `key_array` is (E, k*w) int64 in lexicographic row order and
    `mult_array` holds the matching multiplicities: int64 while k**n < 2**63,
    an object array of Python ints from there on (`_mult_dtype`). `tolist()`
    gives Python ints either way. A lattice comes from the fold (`init`,
    `extend`, `build`) or from `load`, which checks every invariant of the
    text it parses; both hand their arrays to `_from_arrays`, which freezes them.
    """

    __slots__ = ("family", "k", "n", "key_array", "mult_array", "log_base")

    @classmethod
    def _from_arrays(cls, family, k, n, keys, mults, log_base) -> "StatLattice":
        lat = cls.__new__(cls)
        keys.flags.writeable = mults.flags.writeable = False
        for name, value in zip(cls.__slots__, (family, k, n, keys, mults, log_base)):
            object.__setattr__(lat, name, value)
        return lat

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
        return sum(self.mult_array.tolist())


def _mult_dtype(k: int, n: int):
    """int64 while every multiplicity and merge sum (at most k**n) fits, else object."""
    return np.int64 if k == 1 or (n < 64 and k**n < _WORD_SPAN) else object


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


def _fold(
    lattice: StatLattice, observations: Sequence, budget: int = DEFAULT_ENTRY_BUDGET
) -> StatLattice:
    """Absorb the observations in order, merging colliding successors."""
    family, k, w = lattice.family, lattice.k, lattice.slot_width
    # each observation is read once: R(x) for the shifts, log h(x) for log_base
    observed = [families.observe(family, obs, lattice.categories) for obs in observations]
    stats = [(1, *r) for r, _ in observed]
    # every entry shares the column totals, and no digit outgrows its
    # column's final total, so radix total + 1 never carries
    first = lattice.key_array[0].tolist()
    totals = [sum(first[c::w]) + sum(s[c] for s in stats) for c in range(w)]
    if max(totals) * k >= _WORD_SPAN:
        raise ValueError("a statistic digit would leave the int64 key range")
    kept = (k - 1) * w  # the last slot is the totals minus the others
    radix = [t + 1 for t in totals] * (k - 1)
    places = _word_places(radix)
    codes = places @ lattice.key_array[:, :kept].T  # (W, E), word 0 most significant
    # shifts[i, :, j]: what absorbing observation i into slot j adds to each
    # word; the dropped last slot adds nothing
    shifts = np.zeros((len(stats), len(places), k), dtype=np.int64)
    shifts[:, :, :-1] = np.einsum("pjc,ic->ipj", places.reshape(len(places), k - 1, w), stats)
    mults, n, log_base = lattice.mult_array, lattice.n, lattice.log_base
    growth = [len(mults)]
    for (_, log_h), shift in zip(observed, shifts):
        succ = (codes[:, None, :] + shift[:, :, None]).reshape(len(codes), -1)
        # k sorted runs, which the stable sort under lexsort merges
        order = np.lexsort(succ[::-1])
        succ = succ[:, order]
        fresh = np.zeros(succ.shape[1], dtype=bool)
        fresh[0] = True
        for word in succ:
            fresh[1:] |= word[1:] != word[:-1]
        starts = np.flatnonzero(fresh)
        n += 1
        growth.append(len(starts))
        if len(starts) > budget:
            raise ResourceLimitError(
                f"entry budget {budget} exceeded at {len(starts)} entries on observation {n}",
                entry_count=len(starts),
                step=n,
                growth=tuple(growth),
            )
        codes = succ[:, starts]
        # to Python ints at the step where k**n reaches 2**63, else no copy
        mults = np.tile(mults.astype(_mult_dtype(k, n), copy=False), k)
        mults = np.add.reduceat(mults[order], starts)
        log_base = log_base + log_h

    # decode once: column c is word `row[c]`'s code // place % radix
    row, place = places.argmax(axis=0), places.max(axis=0)
    head = (codes[row] // place[:, None] % np.array(radix, dtype=np.int64)[:, None]).T
    keys = np.empty((len(head), k * w), dtype=np.int64)
    keys[:, :kept] = head
    keys[:, kept:] = np.array(totals) - head.reshape(len(head), k - 1, w).sum(axis=1)
    return StatLattice._from_arrays(family, k, n, keys, mults, log_base)


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
    # the n=0 lattice: one all-zero key; -0.0 + x is x bitwise for every x
    one = np.array([1], dtype=_mult_dtype(k, 0))
    empty = StatLattice._from_arrays(family, k, 0, np.zeros((1, k * w), np.int64), one, -0.0)
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

    Rows are written as bytes, one block at a time: a uint8 buffer of
    fixed-width cells, digits and separators with NUL padding, whose NUL
    bytes `bytes.translate` deletes. Key cells come from a table over
    0..max(key) whose rows are padded to a power-of-two width, so the
    gather copies one word per cell; a key array whose largest digit is not
    below its row count takes divmod planes of its own instead.
    """
    keys, mults = lattice.key_array, lattice.mult_array
    top = int(keys.max())
    table = None
    if top < len(keys):
        width = 1 << len(str(top)).bit_length()  # a power of two above the digits
        table = _cells(np.arange(top + 1), _TAB, width).view(f"V{width}")[:, 0]
    blocks = [_header(lattice.family, lattice.k, lattice.n, lattice.log_base)]
    for start in range(0, len(keys), _BLOCK_ROWS):
        part = keys[start : start + _BLOCK_ROWS]
        key_cells = _cells(part, _TAB) if table is None else table[part]
        mult_cells = _cells(mults[start : start + _BLOCK_ROWS], _NEWLINE)
        lines = np.concatenate((key_cells.view(np.uint8).reshape(len(part), -1), mult_cells), axis=1)
        blocks.append(lines.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(blocks)


def _cell_values(digit: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """uint64 values of digit cells, one Horner step per digit column. Only
    the first 19 digits of a longer cell count, so no value wraps."""
    value = digit[starts].astype(np.uint64)
    for d in range(1, min(int(lengths.max()), _INT64_DIGITS)):
        live = np.flatnonzero(lengths > d)
        value[live] = value[live] * 10 + digit[starts[live] + d]
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


def _parse_body(body: str, family: str, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys and multiplicities of the entry lines of a dump, held to dump's
    grammar; the parse's cell-sized temporaries end with this call."""
    try:
        raw = body.encode("ascii")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start]
        raise LatticeFormatError(f"malformed lattice entry: non-ASCII {bad!r}") from exc
    data = np.frombuffer(raw, dtype=np.uint8)
    if data[-1] != ord("\n"):
        raise LatticeFormatError("malformed lattice entry: the last line has no newline")
    digit = data - np.uint8(ord("0"))  # wraps above 9 for every other byte
    seps = np.flatnonzero(digit > 9)
    kinds = data[seps]
    tabs = kinds == ord("\t")
    stray = np.flatnonzero(~tabs & (kinds != ord("\n")))
    if len(stray):
        raise _cell_error(raw, int(seps[stray[0]]))
    # cell i spans [starts[i], starts[i] + lengths[i]); the body ends in a separator
    lengths = np.empty_like(seps)
    lengths[0] = seps[0]
    np.subtract(seps[1:], seps[:-1], out=lengths[1:])
    lengths[1:] -= 1
    starts = np.subtract(seps, lengths, out=seps)  # the separators are not needed again
    if not lengths.all():
        raise LatticeFormatError("malformed lattice entry: an empty cell or a blank line")
    line_ends = np.flatnonzero(~tabs)
    width = int(line_ends[0])
    w = width // k
    if width != k * w or (w == 2) != (family == "poisson") or w < 2:
        raise LatticeFormatError(f"key width {width} does not fit a {family} lattice with k={k}")
    if np.any(np.diff(line_ends) != width + 1):
        raise LatticeFormatError(f"entries disagree on the key width {width}")
    if np.any((digit[starts] == 0) & (lengths > 1)):
        raise LatticeFormatError("malformed lattice entry: a leading zero")

    rows = len(line_ends)
    table = _cell_values(digit, starts, lengths).reshape(rows, width + 1)
    starts, lengths = starts.reshape(rows, width + 1), lengths.reshape(rows, width + 1)
    if lengths[:, :-1].max() > _INT64_DIGITS or table[:, :-1].max() >= _WORD_SPAN:
        raise LatticeFormatError("malformed lattice entry: a key digit beyond int64")
    keys = table[:, :-1].astype(np.int64)
    if _mult_dtype(k, n) is object:
        cells = zip(starts[:, -1].tolist(), (starts[:, -1] + lengths[:, -1]).tolist())
        try:
            mults = np.array([int(raw[a:b]) for a, b in cells], dtype=object)
        except ValueError as exc:  # more digits than int() converts
            raise LatticeFormatError(f"malformed lattice entry: {exc}") from exc
    elif lengths[:, -1].max() > _INT64_DIGITS or table[:, -1].max() > k**n:
        raise LatticeFormatError(f"dump violates conservation: a multiplicity above {k}^{n}")
    else:
        mults = table[:, -1].astype(np.int64)
    return keys, mults


def load(text: str) -> StatLattice:
    """Inverse of dump; raises LatticeFormatError on any text dump cannot write.

    The grammar is dump's exactly: its header line, then one line per entry
    of k*w + 1 tab-separated cells, each `0` or ASCII digits without a
    leading zero, every line ending in a single `\\n`. The body is parsed as
    bytes: separators by `flatnonzero`, values by a Horner pass over the
    cell-length columns.
    """
    if not text:
        raise LatticeFormatError("empty lattice dump")
    head, _, body = text.partition("\n")
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
    if not body:
        raise LatticeFormatError("lattice dump has no entries")
    keys, mults = _parse_body(body, family, k, n)

    rows, w = len(keys), keys.shape[1] // k
    slots = keys.reshape(rows, k, w)
    totals = np.einsum("ejc->ec", slots)  # the sum over slots, faster than .sum(axis=1)
    step = np.diff(keys, axis=0)
    lead = (step != 0).argmax(axis=1)
    if int(keys.max()) * k >= _WORD_SPAN or mults.min() < 1:
        raise LatticeFormatError("digit out of range or nonpositive multiplicity")
    if np.any(totals[:, 0] != n) or np.any(totals != totals[0]):
        raise LatticeFormatError(f"entries disagree with n={n} or with each other's totals")
    if np.any((slots[:, :, 0] == 0) & slots[:, :, 1:].any(axis=2)):
        raise LatticeFormatError("an empty slot carries a nonzero aggregate")
    if not np.all(step[np.arange(len(step)), lead] > 0):
        raise LatticeFormatError("keys are duplicated or out of order")
    total = sum(mults.tolist())  # Python ints: the sum cannot wrap
    # the bit-length test keeps k**n cheap when n is absurdly large
    if (k > 1 and n * math.log2(k) > total.bit_length() + 1) or total != k**n:
        raise LatticeFormatError(f"dump violates conservation: total {total} != {k}^{n}")
    return StatLattice._from_arrays(family, k, n, keys, mults, log_base)
