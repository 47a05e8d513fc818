"""Exact mixture posterior from a statistic lattice and a conjugate prior.

Every distinct allocation statistic contributes one closed-form term: a
Dirichlet posterior over the mixture weights and one updated conjugate
posterior per component, weighted by the term's normalized partition
weight. Weights are assembled in log space and normalized by
max-subtraction; the log evidence is taken before normalization and
includes the data base measure, so it is the true log marginal likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .families import (
    ComponentPrior,
    beta_logpdf,
    beta_ppf,
    betaln,
    expit,
    fsum,
    gamma_logpdf,
    gamma_ppf,
    gammaln,
    logit,
    per_distinct,
)
from .lattice import Key, StatLattice, log_multiplicities

DEFAULT_GRID_POINTS = 512
DEFAULT_COVERAGE = 1e-8
DEFAULT_TOLERANCE = 1e-4


@dataclass(frozen=True)
class MixturePrior:
    """Dirichlet prior on the weights plus one conjugate prior per component."""

    alpha: tuple[float, ...]
    components: tuple[ComponentPrior, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise ValueError("need at least one component")
        if len(self.alpha) != len(self.components):
            raise ValueError(
                f"alpha length {len(self.alpha)} != component count {len(self.components)}"
            )
        if not all(a > 0 and math.isfinite(a) for a in self.alpha):
            raise ValueError(f"Dirichlet concentrations must be positive, got {self.alpha}")
        fams = {c.family for c in self.components}
        if len(fams) != 1:
            raise ValueError(f"components mix families: {sorted(fams)}")
        if self.family == "multinomial":
            widths = {c.categories for c in self.components}
            if len(widths) != 1:
                raise ValueError("components disagree on the category count")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def family(self) -> str:
        return self.components[0].family

    def log_dirichlet_constant(self) -> float:
        return gammaln(fsum(self.alpha)) - fsum(map(gammaln, self.alpha))


@dataclass(frozen=True)
class WeightedPosterior:
    """Normalized posterior over all distinct allocation statistics: the
    lattice's entries, in its order, with their weights."""

    prior: MixturePrior
    lattice: StatLattice  # packed keys and exact multiplicities
    log_weights: np.ndarray  # unnormalized, includes log multiplicity
    weights: np.ndarray  # normalized, sums to 1
    log_evidence: float

    @property
    def family(self) -> str:
        return self.prior.family

    @property
    def k(self) -> int:
        return self.prior.k

    @property
    def n(self) -> int:
        return self.lattice.n

    @property
    def slot_width(self) -> int:
        return self.lattice.slot_width

    @property
    def key_array(self) -> np.ndarray:
        """(E, k*w) int64 keys in lexicographic rows, decoded on each access."""
        return self.lattice.key_array

    @property
    def mult_array(self) -> np.ndarray:
        """(E,) exact multiplicities, the lattice's int64 or object array."""
        return self.lattice.mult_array

    @property
    def keys(self) -> tuple[Key, ...]:
        """Tuple view of the key array, built on demand."""
        return tuple(map(tuple, self.key_array.tolist()))

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(self.mult_array.tolist())


@dataclass(frozen=True)
class DensityGrid:
    """Marginal density evaluated on a strictly increasing grid."""

    param: str
    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        density = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a 1-D vector with at least two points")
        if grid.size != density.size:
            raise ValueError("grid and density lengths differ")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(density)):
            raise NumericalError(f"{self.param} density is not finite on the grid")
        if np.any(density < 0):
            raise ValueError("density values must be nonnegative")

    def trapezoid(self) -> float:
        return float(np.trapezoid(self.density, self.grid))

    def to_csv(self) -> str:
        lines = ["param,density"]
        lines.extend(f"{t!r},{d!r}" for t, d in zip(self.grid.tolist(), self.density.tolist()))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PosteriorSummary:
    """Closed-form posterior headline numbers for one model fit."""

    family: str
    k: int
    n: int
    distinct: int
    mass99: int
    log_evidence: float
    expected_weights: tuple[float, ...]
    expected_means: tuple[tuple[float, ...], ...]  # per component, per mean parameter

    def mean_labels(self) -> list[str]:
        if self.family == "poisson":
            return [f"lambda{j + 1}" for j in range(self.k)]
        if self.family == "multinomial":
            v = len(self.expected_means[0])
            return [f"q{j + 1},{u + 1}" for j in range(self.k) for u in range(v)]
        return [f"mu{j + 1}" for j in range(self.k)]

    def to_text(self) -> str:
        lines = [
            f"family={self.family}",
            f"k={self.k}",
            f"n={self.n}",
            f"distinct={self.distinct}",
            f"mass99={self.mass99}",
            f"log_evidence={self.log_evidence!r}",
        ]
        for j, w in enumerate(self.expected_weights):
            lines.append(f"E_p{j + 1}={w!r}")
        flat = [m for comp in self.expected_means for m in comp]
        for label, value in zip(self.mean_labels(), flat):
            lines.append(f"E_{label}={value!r}")
        return "\n".join(lines) + "\n"


def _check_compatible(lat: StatLattice, prior: MixturePrior) -> None:
    if lat.family != prior.family:
        raise ValueError(f"lattice family {lat.family!r} != prior family {prior.family!r}")
    if lat.k != prior.k:
        raise ValueError(f"lattice k {lat.k} != prior k {prior.k}")
    if lat.family == "multinomial" and lat.categories != prior.components[0].categories:
        raise ValueError("lattice and prior disagree on the category count")


def _dirichlet_total(aggregates: np.ndarray, beta) -> np.ndarray:
    """Each entry's sum over u of beta_u + S_u, the total of its Dirichlet
    update, from one component's (v, E) aggregate columns: the one total
    of the weight and E[q]. A q member's takes the slot's integer total
    instead (`_component_members`)."""
    return _row_sum(s + b for s, b in zip(aggregates, beta))


# float elements of a density block: its two buffers (1 MiB) stay in L2. No result depends on it.
_DENSITY_BLOCK_ELEMENTS = 2**17


def _row_sum(columns) -> np.ndarray:
    """Entrywise sum of float columns, each entry's values added in
    sequence from +0.0, whatever their count: whole columns are added in
    that order, with no row-major copy, and the first is overwritten. An
    iterator of columns is read one column at a time.
    """
    columns = iter(columns)
    total = next(columns)
    for column in columns:
        total += column
    total += 0.0  # the start: a row of -0.0 sums to +0.0
    return total


def _sorted_sum(columns: list) -> np.ndarray:
    """Entrywise sum of float columns in ascending order, added in sequence
    from +0.0 (`_row_sum`).

    An odd-even transposition network orders each entry's values across
    the columns: k rounds of compare-exchanges on neighbouring columns, by
    `np.minimum` and `np.maximum`. Equal values have equal bits, except
    that the pair may come out as two zeros of one sign; a zero's sign
    changes no nonzero sum, and a zero sum is +0.0. The list and its
    columns are overwritten.
    """
    spare = np.empty_like(columns[0])
    for rnd in range(len(columns)):
        for i in range(rnd % 2, len(columns) - 1, 2):
            np.minimum(columns[i], columns[i + 1], out=spare)
            np.maximum(columns[i], columns[i + 1], out=columns[i + 1])
            columns[i], spare = spare, columns[i]
    return _row_sum(columns)


def _log_weight_vector(lat: StatLattice, prior: MixturePrior) -> np.ndarray:
    """Each entry's unnormalized log weight, a block of decoded keys at a
    time (`StatLattice.key_blocks`): every term is a function of one entry,
    so no value depends on the block."""
    k, w, size = lat.k, lat.slot_width, lat.distinct_count()
    alpha = prior.alpha

    def on_digits(fn, c: int, const: float):
        """fn(d + const) of key column c's digits d, at most its total, as a
        function of a block of them, fn a scalar function (`gammaln`, or
        libm's `math.log`: numpy's own log varies by CPU). A table over
        0..total is gathered where k*w such tables together are no longer
        than the lattice, else fn runs on each block's distinct values.
        Both evaluate fn at the same doubles, so the result is bitwise the
        same either way."""
        if (lat.totals[c] + 1) * k * w > size:
            return lambda digits: per_distinct(fn, digits.astype(float) + const)
        return per_distinct(fn, np.arange(lat.totals[c] + 1, dtype=float) + const).take

    # per component: log Gamma of its count digit plus alpha_j, then of each
    # aggregate digit plus its prior constant; a rate's log term reads the counts
    poisson, comps = prior.family == "poisson", prior.components
    tables = []
    for j, comp in enumerate(comps):
        if poisson:
            terms = [(gammaln, 1, float(comp.shape)), (math.log, 0, float(comp.rate))]
        else:
            terms = [(gammaln, 1 + u, b) for u, b in enumerate(comp.concentration)]
        tables.append([on_digits(gammaln, 0, alpha[j]), *(on_digits(*term) for term in terms)])

    def contribution(counts, aggregates, comp, count_term, *rest):
        term = count_term(counts)
        if poisson:  # a lattice has no family but Poisson and multinomial
            (sums,), (sum_term, log_rate) = aggregates, rest
            term += sum_term(sums)
            term -= (sums + float(comp.shape)) * log_rate(counts)
        else:
            term += _row_sum(f(s) for f, s in zip(rest, aggregates))
            # a float sum over the categories is not a function of one digit
            term -= gammaln(_dirichlet_total(aggregates, comp.concentration))
        return term

    prior_const = fsum(c.log_partition() for c in prior.components)
    shared = gammaln(lat.n + fsum(alpha))
    log_mult = log_multiplicities(lat.mult_array)
    out = np.empty(size)
    for part, columns in lat.key_blocks():
        # sorted addition makes the sum invariant under component relabeling,
        # so symmetric priors give exactly symmetric weights
        slots = columns.reshape(k, w, -1)
        block = _sorted_sum([contribution(c, a, comp, *t) for (c, *a), comp, t in zip(slots, comps, tables)])
        block += log_mult(lat.mult_array[part]) - shared - prior_const
        out[part] = block
    return out


# values that `_exact_sums` reads at a time. No result depends on it.
_SUM_BLOCK = 2**14
# np.frexp's exponents of the finite doubles: -1073 (the least subnormal)
# up to 1024, 2,098 of them; a zero's, 0, lies among them
_LOW_EXPONENT, _EXPONENTS = -1073, 2098


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty array, increasing: np.unique's, by
    a sort and a neighbour mask, since a plain np.unique imports numpy.ma."""
    values = np.sort(values, axis=None)
    return values[np.concatenate([[True], values[1:] != values[:-1]])]


def _exact_sums(values, codes=None, groups: int = 1) -> np.ndarray:
    """The correctly rounded sum of each group's values, `math.fsum` of
    them, whatever the order of the entries or the blocks they come in. The
    values are finite and nonnegative. They are one array, with `codes`
    giving each one's group in 0..groups - 1 (None puts them all in one
    group), or an iterable of (groups, rows) blocks whose row g holds
    values of group g.

    np.frexp writes a value as an integer mantissa m < 2**53 times
    2**(e - 53), and m splits into halves below 2**26 and 2**27. np.bincount
    sums each half per (group, e) bin of a block, exactly while the block
    holds fewer than 2**26 values, and the blocks' bins add up in int64.
    Below 2**26 values in a group, a bin's two sums times their powers of
    two are exact doubles, and `math.fsum` of a group's rounds their exact
    total once, as `StatLattice.log_base` rounds its exact int.

    Each group has a bin for each of the `_EXPONENTS`, so no pass reads
    ahead, and a block's bincounts span only the exponents it holds. Where
    that table is larger than an array, only the bins its values occupy are
    kept (`_distinct`, and np.searchsorted per block); a block of the array
    is never smaller than the table, so temporaries stay block-sized.
    """
    out, occupied, size = np.zeros(groups), None, groups * _EXPONENTS
    if isinstance(values, np.ndarray):
        if size > values.size:
            occupied = _distinct(np.frexp(values)[1] - _LOW_EXPONENT + (0 if codes is None else codes * _EXPONENTS))
            size = occupied.size
        block = max(_SUM_BLOCK, size)
        parts = (slice(lo, lo + block) for lo in range(0, values.size, block))
        blocks = ((values[part], 0 if codes is None else codes[part]) for part in parts)
    else:
        blocks = ((part, np.arange(groups)[:, None]) for part in values)
    halves = np.zeros((2, size), dtype=np.int64)
    for part, part_codes in blocks:
        mant, exps = np.frexp(part)
        mant *= 2.0**53
        high = mant * 2.0**-27
        np.floor(high, out=high)
        mant -= high * 2.0**27
        if occupied is None:
            low = int(exps.min())
            span = int(exps.max()) - low + 1
            table = halves.reshape(2, groups, _EXPONENTS)[:, :, low - _LOW_EXPONENT : low - _LOW_EXPONENT + span]
            bins = (part_codes * span + (exps - low)).ravel()
        else:
            table = halves
            bins = np.searchsorted(occupied, (part_codes * _EXPONENTS + (exps - _LOW_EXPONENT)).ravel())
        for half, value in zip(table, (high, mant)):
            half += np.bincount(bins, value.ravel(), half.size).reshape(half.shape).astype(np.int64)
    bins = np.arange(size) if occupied is None else occupied
    used = np.flatnonzero(halves[0] | halves[1])
    group, shift = np.divmod(bins[used], _EXPONENTS)
    # a bin's halves as two exact doubles: below 2**53, and multiples of 2**-1074
    unit = shift + (_LOW_EXPONENT - 53)
    pieces = np.ldexp(halves[:, used].T.astype(float), np.stack([unit + 27, unit], axis=1)).ravel()
    starts = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
    for g, first, end in zip(group[starts].tolist(), starts, [*starts[1:], group.size]):
        out[g] = math.fsum(pieces[2 * first : 2 * end].tolist())
    return out


def _weigh(lat: StatLattice, prior: MixturePrior) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Unnormalized log weights, exp(logw - max), its one correctly rounded
    sum and the log evidence max + log(sum), as the oracle's. Refuses
    non-finite ones."""
    _check_compatible(lat, prior)
    overflow = NumericalError("log weights or log evidence overflow double precision")
    with np.errstate(all="ignore"):
        logw = _log_weight_vector(lat, prior)
        if not np.all(np.isfinite(logw)):  # the exact sum takes finite values only
            raise overflow
        top = logw.max()
        shifted = np.subtract(logw, top)
        np.exp(shifted, out=shifted)
        total = _exact_sums(shifted)[0]
        log_m = float(top + math.log(total)) + prior.log_dirichlet_constant() + lat.log_base
    if not math.isfinite(log_m):
        raise overflow
    return logw, shifted, total, log_m


def normalize(lat: StatLattice, prior: MixturePrior) -> WeightedPosterior:
    """Weight every lattice entry and normalize by max-subtraction."""
    logw, weights, total, log_m = _weigh(lat, prior)
    weights /= total
    return WeightedPosterior(prior, lat, logw, weights, log_m)


def log_evidence(lat: StatLattice, prior: MixturePrior) -> float:
    """log m(x): true log marginal likelihood including the base measure."""
    return _weigh(lat, prior)[3]


def bayes_factor(log_m_a: float, log_m_b: float) -> float:
    for name, value in (("log_m_a", log_m_a), ("log_m_b", log_m_b)):
        if not math.isfinite(value):
            raise NumericalError(f"Bayes factor of a non-finite log evidence: {name} = {value!r}")
    diff = log_m_a - log_m_b
    try:
        return float(math.exp(diff))
    except OverflowError:
        raise NumericalError(f"Bayes factor exp({diff!r}) overflows double precision") from None


def _expectations(wp: WeightedPosterior, means: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """E[p_j | x], (k,), and where asked E of component j's mean
    parameters, (k, 1) Poisson or (k, v) multinomial. Each is the correctly
    rounded sum of its products w_e * m_e (`_exact_sums`), so no entry order
    changes it and symmetric priors give bitwise equal means. One pass over
    the decoded key blocks (`StatLattice.key_blocks`) forms every product of
    a block at once, and no column is ever whole."""
    k, w, alpha, comps = wp.k, wp.slot_width, wp.prior.alpha, wp.prior.components
    poisson, total = wp.family == "poisson", wp.n + fsum(alpha)
    per_slot = w if means else 1  # p_j, then the slot's w - 1 means

    def products():
        # every column, or where only p_j is asked the k counts
        for part, columns in wp.lattice.key_blocks(None if means else range(0, k * w, w)):
            out = np.empty((k, per_slot, columns.shape[1]))
            for j, ((counts, *aggregates), row) in enumerate(zip(columns.reshape(k, per_slot, -1), out)):
                # the Dirichlet update: alpha_j + n_j over sum(alpha) + n
                np.add(counts, alpha[j], out=row[0])
                row[0] /= total
                if means and poisson:
                    # the Gamma update: shape a + S over rate b + n
                    np.add(aggregates[0], float(comps[j].shape), out=row[1])
                    row[1] /= counts + float(comps[j].rate)
                elif means:
                    beta = comps[j].concentration
                    dirichlet = _dirichlet_total(aggregates, beta)
                    for s, b, mean in zip(aggregates, beta, row[1:]):
                        np.add(s, b, out=mean)
                        mean /= dirichlet
            out *= wp.weights[part]
            yield out.reshape(k * per_slot, -1)

    sums = _exact_sums(products(), groups=k * per_slot).reshape(k, per_slot)
    return sums[:, 0], sums[:, 1:]


def expected_weights(wp: WeightedPosterior) -> np.ndarray:
    """E[p_j | x]: the exact weighted sum of the entries' Dirichlet means."""
    return _expectations(wp, means=False)[0]


def expected_component_means(wp: WeightedPosterior) -> np.ndarray:
    """E of each component's mean parameters, (k,) Poisson and (k, v)
    multinomial: the exact weighted sum of the entries' conjugate means."""
    means = _expectations(wp)[1]
    return means[:, 0] if wp.family == "poisson" else means


def mass_concentration(wp: WeightedPosterior, threshold: float = 0.99) -> int:
    """Smallest count of entries, largest weight first, reaching the threshold."""
    if not (0 < threshold <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    # tied weights are equal values, so the descending sort fixes every
    # addend, and cumsum adds in sequence: this equals the running float
    # sum of the oracle's loop
    reached = np.cumsum(np.sort(wp.weights)[::-1]) >= threshold
    return int(reached.argmax()) + 1 if reached.any() else len(reached)


def summarize(wp: WeightedPosterior) -> PosteriorSummary:
    weights, means = _expectations(wp)
    return PosteriorSummary(
        family=wp.family,
        k=wp.k,
        n=wp.n,
        distinct=wp.lattice.distinct_count(),
        mass99=mass_concentration(wp, 0.99),
        log_evidence=wp.log_evidence,
        expected_weights=tuple(weights.tolist()),
        expected_means=tuple(map(tuple, means.tolist())),
    )


# ---------------------------------------------------------------------------
# density grids


def _distinct_pairs(pairs, tops: tuple[int, int], size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (x, y) pairs of int64 digits in ascending order, x
    first, and each entry's index among them. `pairs` yields the (x, y)
    digit blocks of `size` entries in all, in entry order, none above
    `tops`.

    A pair's code is x * (top y + 1) + y, one whole-length array that the
    indices then overwrite a block at a time. Where a table up to the
    largest code is no longer than that array, it marks the codes present,
    with no sort; elsewhere np.unique sorts the codes, or the pairs as rows
    where a code could pass 2**63.
    """
    span = tops[1] + 1
    if (tops[0] + 1) * span > 2**63:
        x, y = map(np.concatenate, zip(*((x.copy(), y.copy()) for x, y in pairs)))
        distinct, index = np.unique(np.stack([x, y], axis=1), axis=0, return_inverse=True)
        return distinct[:, 0], distinct[:, 1], index.reshape(-1)
    codes = np.empty(size, dtype=np.int64)
    lo = 0
    for x, y in pairs:
        part = codes[lo : lo + len(x)]
        np.multiply(x, span, out=part)
        part += y
        lo += len(x)
    top = int(codes.max()) + 1
    if top > size:
        distinct, index = np.unique(codes, return_inverse=True)
        return *np.divmod(distinct, span), index
    present = np.zeros(top, dtype=bool)
    present[codes] = True
    rank = np.cumsum(present) - 1
    for lo in range(0, size, _DENSITY_BLOCK_ELEMENTS):
        part = codes[lo : lo + _DENSITY_BLOCK_ELEMENTS]
        part[...] = rank[part]
    return *np.divmod(np.flatnonzero(present), span), codes


class _Members:
    """Distinct members of one marginal, each carrying its summed weight.

    A member's parameters are (a, b) = (a0 + x, b0 + y), with x and y digits
    of one key slot (`of_entries`), so entries with equal digits are merged
    by their integer pair, a block of decoded keys at a time, before any
    density is evaluated. A member's weight
    is the correctly rounded sum of its entries' weights, which no entry
    order changes: posteriors equal up to entry permutation, e.g. across
    label-symmetric components, give bitwise equal weights, grids and
    densities.

    A member's log density is c0_d * basis0(t) + c1_d * basis1(t) + c2_d, in
    two functions of the point that each subclass defines; a mixture at t is
    the weighted sum of those exponentiated over the members.
    """

    # closed forms of the log density at t and the point of lower-tail mass
    # u, each taking the member parameters in order after t or u
    closed_logpdf = closed_ppf = None
    # the family's coordinate, in which mass grids are laid out, and its inverse
    coordinate = point = None

    def __init__(self, a, b, weights):
        self.params = tuple(np.asarray(p, dtype=float) for p in (a, b))
        self.weights = np.asarray(weights, dtype=float)
        for p in self.params:
            bad = p[~((p > 0.0) & np.isfinite(p))]
            if bad.size:
                raise NumericalError(
                    f"a member parameter is {float(bad[0])!r}, not a positive double: the prior swamps the data "
                    "in double precision"
                )
        self.coef = self.coefficients(*self.params)  # (3, D)

    @classmethod
    def of_entries(cls, pairs, tops: tuple[int, int], weights: np.ndarray, a0: float, b0: float) -> "_Members":
        """One member (a0 + x, b0 + y) per distinct pair of the entries'
        int64 digits x <= tops[0] and y <= tops[1], which `pairs` yields a
        block at a time, in ascending order, weighing the exact sum of its
        entries' weights."""
        x, y, index = _distinct_pairs(pairs, tops, weights.size)
        return cls(x + a0, y + b0, _exact_sums(weights, index, x.size))

    def ppf(self, u) -> np.ndarray:
        return self.closed_ppf(u, *self.params)

    def laplace(self, idx=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Each member's mode in its coordinate, log(a / b) for both
        families, and its spread there, the inverse root curvature."""
        a, b = (p[idx] for p in self.params)
        return np.log(a) - np.log(b), self.spread(a, b)

    def mixture_pdf(self, t, idx=slice(None)) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        c0, c1, c2 = self.coef[:, idx]
        w = self.weights[idx]
        out = np.empty(t.size)
        # overflow is an inf density, which mass_grid and the grid checks report
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x0, x1 = self.basis(t)
            # blocks of points keep memory flat in D; each point's members
            # are summed as one row, whatever the block
            rows = max(1, _DENSITY_BLOCK_ELEMENTS // (2 * max(w.size, 1)))
            buf, spare = np.empty((2, min(rows, t.size), w.size))
            for lo in range(0, t.size, rows):
                block, other = buf[: t.size - lo], spare[: t.size - lo]
                # a row copied and scaled in place by the column is the
                # column broadcast's product, formed faster
                np.copyto(block, c0)
                block *= x0[lo : lo + rows, None]
                np.copyto(other, c1)
                other *= x1[lo : lo + rows, None]
                block += other
                block += c2
                np.exp(block, out=block)
                block *= w
                np.add.reduce(block, axis=1, out=out[lo : lo + rows])
            # support edges and points outside the support (log 0, log of a
            # negative) take the closed form, which knows their limits
            edge = ~(np.isfinite(x0) & np.isfinite(x1))
        if edge.any():
            logpdf = self.closed_logpdf(t[edge, None], *(p[idx] for p in self.params))
            out[edge] = np.add.reduce(np.exp(logpdf) * w, axis=1)
        return out


class _GammaMembers(_Members):
    closed_logpdf, closed_ppf = staticmethod(gamma_logpdf), staticmethod(gamma_ppf)
    coordinate, point = staticmethod(np.log), staticmethod(np.exp)

    @staticmethod
    def coefficients(a, b):
        return np.stack([a - 1.0, -b, a * per_distinct(math.log, b) - gammaln(a)])

    def basis(self, t):
        return np.log(t), t

    @staticmethod
    def spread(a, b):
        return 1.0 / np.sqrt(a)


class _BetaMembers(_Members):
    """Members on (0, 1); their grids stay strictly inside it."""

    closed_logpdf, closed_ppf = staticmethod(beta_logpdf), staticmethod(beta_ppf)
    coordinate, point = staticmethod(logit), staticmethod(expit)

    @staticmethod
    def coefficients(a, b):
        return np.stack([a - 1.0, b - 1.0, -betaln(a, b)])

    def basis(self, t):
        return np.log(t), np.log1p(-t)

    @staticmethod
    def spread(a, b):
        return np.sqrt(1.0 / a + 1.0 / b)


_PROBE_UNIFORM = 4096
_PROBE_SEEDS = 65  # per member, evenly over +-_PROBE_SPREADS spreads
_PROBE_SPREADS = 6.0
_PROBE_MEMBER_CAP = 512
_EVEN_SHARE = 0.125


def _ends(members: _Members) -> tuple[float, float, np.ndarray]:
    """The smallest 1e-8 and the largest 1 - 1e-8 member quantile, and their
    coordinates; NumericalError where either is no finite point inside the
    support."""
    lower, upper = members.ppf(np.array([[DEFAULT_COVERAGE], [1.0 - DEFAULT_COVERAGE]]))
    lo, hi = float(np.min(lower)), float(np.max(upper))
    span = f"[{lo!r}, {hi!r}]; pass an explicit grid (--grid)"
    if math.isnan(lo) or math.isnan(hi):
        raise NumericalError(f"a member quantile did not converge: {span}")
    if math.isinf(hi):
        raise NumericalError(f"member mass reaches past the largest double: {span}")
    with np.errstate(divide="ignore"):
        ends = members.coordinate(np.array([lo, hi]))
    if not np.all(np.isfinite(ends)):
        edges = sorted({e for e, c in zip((lo, hi), ends) if not np.isfinite(c)})
        named = " and ".join(map(repr, edges))
        if np.isinf(members.mixture_pdf(np.array(edges))).any():
            raise NumericalError(f"density diverges at the support edge {named}; pass an explicit grid (--grid)")
        raise NumericalError(f"member mass rounds onto the support edge {named}; pass an explicit grid (--grid)")
    return lo, hi, ends


def mass_grid(members: _Members) -> np.ndarray:
    """Mass-covering grid that equidistributes |f''|^(1/3) of the mixture.

    Composite-trapezoid error over one cell is h^3 |f''| / 12, so
    equidistributing |f''|^(1/3) minimizes the total for a fixed point
    count. Curvature is probed on a fine auxiliary grid seeded with each
    heavy member's Laplace points, so that narrow members are never missed.
    The probe and _EVEN_SHARE of the cells are even in the members'
    coordinate.
    """
    lo, hi, ends = _ends(members)
    # probe guidance can ignore negligible members; their curvature share
    # is bounded by their total weight
    order = np.argsort(-members.weights, kind="stable")
    idx = np.sort(order[:_PROBE_MEMBER_CAP])
    centre, spread = members.laplace(idx)
    offsets = np.linspace(-_PROBE_SPREADS, _PROBE_SPREADS, _PROBE_SEEDS)[:, None]
    seeds = np.clip(centre + offsets * spread, *ends)
    s = _distinct(np.concatenate([np.linspace(*ends, _PROBE_UNIFORM), seeds.ravel()]))
    probe = members.point(s)
    probe[0], probe[-1] = lo, hi
    # the map back rounds neighbouring coordinates onto one double
    distinct = np.concatenate([[True], np.diff(probe) > 0])
    s, probe = s[distinct], probe[distinct]
    if not (hi > lo and probe.size >= 3):
        raise NumericalError(f"mixture mass spans too few doubles: [{lo!r}, {hi!r}]")
    f = members.mixture_pdf(probe, idx)

    h1 = np.diff(probe)[:-1]
    h2 = np.diff(probe)[1:]
    with np.errstate(all="ignore"):
        d2 = 2.0 * (h1 * f[2:] - (h1 + h2) * f[1:-1] + h2 * f[:-2]) / (h1 * h2 * (h1 + h2))
        w = np.abs(np.concatenate([d2[:1], d2, d2[-1:]])) ** (1.0 / 3.0)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(probe))])
    if not np.isfinite(cum[-1]):
        raise NumericalError(f"density overflows inside [{lo!r}, {hi!r}]; pass an explicit grid (--grid)")
    even = (s - s[0]) / (s[-1] - s[0])
    # a flat density has no curvature: all its cells are even
    cum = (1.0 - _EVEN_SHARE) * (cum / cum[-1] if cum[-1] > 0 else even) + _EVEN_SHARE * even
    grid = np.interp(np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS), cum, probe)
    grid[0], grid[-1] = lo, hi
    if not np.all(np.diff(grid) > 0):
        raise NumericalError("mass grid failed to come out strictly increasing")
    return grid


def check_marginal_indices(
    k: int, j: int, family: str | None = None, category: int | None = None, v: int | None = None
) -> None:
    """Refuse a bad marginal index with the message every density entry
    point shares, the engine's and the oracle's alike: family None asks
    for the weight p_j, a family for component j's mean parameter, which
    for multinomial data is category `category` of v. An index is a Python
    or NumPy integer, not a bool."""
    for name, index in (("component", j), ("category", category)):
        if index is not None and (isinstance(index, bool) or not isinstance(index, (int, np.integer))):
            raise ValueError(f"{name} index {index!r} is not an integer")
    if not (0 <= j < k):
        raise ValueError(f"component index {j} out of range for k={k}")
    if family is None:
        if k == 1:
            raise ValueError("p1 is identically 1 when k = 1; it has no density")
        return
    if category is not None and family != "multinomial":
        raise ValueError(f"{family} components have no categories; q marginals need multinomial data")
    if family == "multinomial":
        if category is None:
            raise ValueError("multinomial marginals need a category index")
        if not (0 <= category < v):
            raise ValueError(f"category index {category} out of range for v={v}")


def _component_members(wp: WeightedPosterior, j: int, category: int | None) -> tuple[_Members, str]:
    """Component j's members: Gamma(a0 + S_j, b0 + n_j) for a rate, and for
    q_{j,u} Beta(beta_u + S_u, (sum beta - beta_u) + (T - S_u)), T the
    slot's integer total sum_u S_u."""
    check_marginal_indices(wp.k, j, wp.family, category, wp.slot_width - 1)
    comp, totals, w = wp.prior.components[j], wp.lattice.totals, wp.slot_width
    if wp.family == "poisson":
        pairs = ((slot[1], slot[0]) for _, slot in wp.lattice.key_blocks(range(j * w, (j + 1) * w)))
        members = _GammaMembers.of_entries(pairs, (totals[1], wp.n), wp.weights, float(comp.shape), float(comp.rate))
        return members, f"lambda{j + 1}"

    def pairs():
        for _, aggregates in wp.lattice.key_blocks(range(j * w + 1, (j + 1) * w)):
            s = aggregates[category]
            rest = aggregates.sum(axis=0)
            rest -= s
            yield s, rest

    beta, tops = comp.concentration, (totals[1 + category], sum(totals[1:]))
    members = _BetaMembers.of_entries(pairs(), tops, wp.weights, beta[category], fsum(beta) - beta[category])
    return members, f"q{j + 1},{category + 1}"


def _weight_members(wp: WeightedPosterior, j: int) -> _BetaMembers:
    """p_j's members Beta(n_j + alpha_j, (sum alpha - alpha_j) + (n - n_j))."""
    check_marginal_indices(wp.k, j)
    alpha = wp.prior.alpha
    pairs = ((counts, wp.n - counts) for _, (counts,) in wp.lattice.key_blocks([j * wp.slot_width]))
    return _BetaMembers.of_entries(pairs, (wp.n, wp.n), wp.weights, alpha[j], fsum(alpha) - alpha[j])


def _marginal(members: _Members, param: str, grid) -> DensityGrid:
    """The members' mixture density on the given grid, or on their mass grid.
    A mass grid holds all but 2 * DEFAULT_COVERAGE of the exact mass, so its
    trapezoid must be within DEFAULT_TOLERANCE of 1."""
    default = grid is None
    if default:
        grid = mass_grid(members)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError(f"grid must be a non-empty 1-D vector, got shape {grid.shape}")
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"grid points must be finite, got {float(grid[~np.isfinite(grid)][0])!r}")
        if isinstance(members, _BetaMembers) and (np.any(grid <= 0.0) or np.any(grid >= 1.0)):
            raise ValueError("grid points must lie strictly inside (0, 1)")
    out = DensityGrid(param, grid, members.mixture_pdf(grid))
    if default and not abs(out.trapezoid() - 1.0) <= DEFAULT_TOLERANCE:
        raise NumericalError(
            f"default {param} grid integrates to {out.trapezoid()!r}, not 1 within {DEFAULT_TOLERANCE!r}; "
            "pass an explicit grid (--grid)"
        )
    return out


def marginal_component_density(
    wp: WeightedPosterior,
    j: int,
    grid=None,
    category: int | None = None,
) -> DensityGrid:
    """Posterior marginal of component j's mean parameter as a weight mixture."""
    return _marginal(*_component_members(wp, j, category), grid)


def marginal_weight_density(wp: WeightedPosterior, j: int, grid=None) -> DensityGrid:
    """Posterior marginal of the mixture weight p_j: a Beta mixture."""
    return _marginal(_weight_members(wp, j), f"p{j + 1}", grid)
