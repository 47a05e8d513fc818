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
    fsum,
    gamma_logpdf,
    gamma_ppf,
    gammaln,
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
    """Normalized posterior over all distinct allocation statistics."""

    prior: MixturePrior
    n: int
    key_array: np.ndarray  # (E, k*w) int64, lexicographic rows, the lattice's column-major array
    mult_array: np.ndarray  # (E,) exact multiplicities, the lattice's int64 or object array
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
    def slot_width(self) -> int:
        return self.key_array.shape[1] // self.k

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


def _key_columns(key_array: np.ndarray, k: int) -> np.ndarray:
    """(k, w, E) view of the contiguous key columns: counts at [:, 0],
    aggregates after."""
    return key_array.T.reshape(k, -1, len(key_array))


def _dirichlet_total(aggregates: np.ndarray, beta) -> np.ndarray:
    """Each entry's sum over u of beta_u + S_u, the total of its Dirichlet
    update, from one component's (v, E) aggregate columns: the one total
    of the weight, E[q] and the q marginal."""
    return _row_sum([s + b for s, b in zip(aggregates, beta)])


def _gamma_update(wp: WeightedPosterior, j: int):
    """Each entry's Gamma update of component j, read from its key columns
    in place: shape a + S and rate b + n, (E,) each."""
    counts, sums = _key_columns(wp.key_array, wp.k)[j]
    comp = wp.prior.components[j]
    return sums + float(comp.shape), counts + float(comp.rate)


# float elements of a density block: its two buffers (1 MiB) stay in L2. No result depends on it.
_DENSITY_BLOCK_ELEMENTS = 2**17


def _row_sum(columns: list) -> np.ndarray:
    """Entrywise sum of float columns, each entry's values added in
    sequence from +0.0, whatever their count: whole columns are added in
    that order, with no row-major copy, and the first is overwritten.
    """
    total = columns[0]
    for column in columns[1:]:
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


def _on_digits(fn, digits: np.ndarray, const: float) -> np.ndarray:
    """fn(digits + const) for one int64 key column, fn a scalar function
    (`gammaln`, or libm's `math.log`: numpy's own log varies by CPU).

    A table over 0..max(digits) is gathered when it is shorter than the
    column, else fn runs on the column's distinct values. Both evaluate fn
    at the same doubles, so the result is bitwise the same either way.
    """
    top = int(digits.max())
    if top >= len(digits):
        return per_distinct(fn, digits.astype(float) + const)
    return per_distinct(fn, np.arange(top + 1, dtype=float) + const)[digits]


def _log_weight_vector(lat: StatLattice, prior: MixturePrior) -> np.ndarray:
    log_mult = log_multiplicities(lat.mult_array)  # np.unique's sort ends before any column exists
    columns = _key_columns(lat.key_array, lat.k)
    alpha = prior.alpha
    contrib = []  # one contiguous column of terms per component

    if prior.family == "poisson":
        for j, (counts, sums) in enumerate(columns):
            a0, b0 = float(prior.components[j].shape), float(prior.components[j].rate)
            term = _on_digits(gammaln, counts, alpha[j]) + _on_digits(gammaln, sums, a0)
            term -= (sums + a0) * _on_digits(math.log, counts, b0)
            contrib.append(term)
    else:  # multinomial: a lattice has no other family
        for j, (counts, *aggregates) in enumerate(columns):
            beta = prior.components[j].concentration
            term = _on_digits(gammaln, counts, alpha[j])
            term += _row_sum([_on_digits(gammaln, s, b) for s, b in zip(aggregates, beta)])
            # a float sum over the categories is not a function of one digit
            term -= gammaln(_dirichlet_total(aggregates, beta))
            contrib.append(term)

    # sorted addition makes the sum invariant under component relabeling,
    # so symmetric priors give exactly symmetric weights
    out = _sorted_sum(contrib)
    prior_const = fsum(c.log_partition() for c in prior.components)
    out += log_mult - gammaln(lat.n + fsum(alpha)) - prior_const
    return out


def _weigh(lat: StatLattice, prior: MixturePrior) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Unnormalized log weights, exp(logw - max), its one sum and the log
    evidence max + log(sum), as the oracle's `_log_sum`. Refuses non-finite ones."""
    _check_compatible(lat, prior)
    with np.errstate(all="ignore"):
        logw = _log_weight_vector(lat, prior)
        top = logw.max()
        shifted = np.subtract(logw, top)
        np.exp(shifted, out=shifted)
        total = np.add.reduce(shifted)
        log_m = float(top + math.log(total)) + prior.log_dirichlet_constant() + lat.log_base
    if not (np.all(np.isfinite(logw)) and math.isfinite(log_m)):
        raise NumericalError("log weights or log evidence overflow double precision")
    return logw, shifted, total, log_m


def normalize(lat: StatLattice, prior: MixturePrior) -> WeightedPosterior:
    """Weight every lattice entry and normalize by max-subtraction."""
    logw, weights, total, log_m = _weigh(lat, prior)
    weights /= total
    return WeightedPosterior(prior, lat.n, lat.key_array, lat.mult_array, logw, weights, log_m)


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


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """Sum of weights * values by numpy's pairwise sum, which no BLAS setting reorders; overwrites the values."""
    return float(np.add.reduce(np.multiply(values, weights, out=values)))


def expected_weights(wp: WeightedPosterior) -> np.ndarray:
    """E[p_j | x]: weight-mixture of Dirichlet posterior means, a count column at a time."""
    total = wp.n + fsum(wp.prior.alpha)
    counts = _key_columns(wp.key_array, wp.k)[:, 0]
    return np.array([_weighted_sum(wp.weights, (c + a) / total) for c, a in zip(counts, wp.prior.alpha)])


def expected_component_means(wp: WeightedPosterior) -> np.ndarray:
    """E of each component's mean parameters, a key column at a time: (k,) Poisson, (k, v) multinomial."""
    if wp.family == "poisson":
        updates = (_gamma_update(wp, j) for j in range(wp.k))
        return np.array([_weighted_sum(wp.weights, np.divide(a, b, out=a)) for a, b in updates])
    columns = _key_columns(wp.key_array, wp.k)
    means = []
    for j, comp in enumerate(wp.prior.components):
        total = _dirichlet_total(columns[j, 1:], comp.concentration)
        means.append([_weighted_sum(wp.weights, (s + b) / total) for s, b in zip(columns[j, 1:], comp.concentration)])
    return np.array(means)


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
    # (k,) Poisson and (k, v) multinomial means alike become k tuples of floats
    means = tuple(map(tuple, expected_component_means(wp).reshape(wp.k, -1).tolist()))
    return PosteriorSummary(
        family=wp.family,
        k=wp.k,
        n=wp.n,
        distinct=len(wp.key_array),
        mass99=mass_concentration(wp, 0.99),
        log_evidence=wp.log_evidence,
        expected_weights=tuple(float(w) for w in expected_weights(wp)),
        expected_means=means,
    )


# ---------------------------------------------------------------------------
# density grids


class _Members:
    """Distinct members of one marginal, each carrying its summed weight.

    One key slot fixes each member, so entries with equal parameters are
    merged before any density is evaluated. Groups are summed in a canonical
    order (lexsort on parameters, then weight): posteriors equal up to
    member permutation, e.g. across label-symmetric components, give
    bitwise equal weights, grids and densities.

    A member's log density is c0_d * basis0(t) + c1_d * basis1(t) + c2_d, in
    two functions of the point that each subclass defines; a mixture at t is
    the weighted sum of those exponentiated over the members.
    """

    coef: np.ndarray  # (3, D)
    # closed forms of the log density at t and the point of lower-tail mass
    # u, each taking the member parameters in order after t or u
    closed_logpdf = closed_ppf = None
    # the family's coordinate, in which mass grids are laid out, and its inverse
    coordinate = point = None

    def __init__(self, weights, *params):
        weights = np.asarray(weights, dtype=float)
        params = [np.asarray(p, dtype=float) for p in params]
        order = np.lexsort((weights, *reversed(params)))
        params = [p[order] for p in params]
        start = np.ones(order.size, dtype=bool)
        start[1:] = np.any([p[1:] != p[:-1] for p in params], axis=0)
        starts = np.flatnonzero(start)
        self.weights = np.add.reduceat(weights[order], starts)
        self.params = tuple(p[starts] for p in params)

    def ppf(self, u, idx=slice(None)) -> np.ndarray:
        return self.closed_ppf(u, *(p[idx] for p in self.params))

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

    def __init__(self, shapes, rates, weights):
        super().__init__(weights, shapes, rates)
        a, b = self.params
        self.coef = np.stack([a - 1.0, -b, a * per_distinct(math.log, b) - gammaln(a)])

    def basis(self, t):
        return np.log(t), t


class _BetaMembers(_Members):
    """Members on (0, 1); their grids stay strictly inside it."""

    closed_logpdf, closed_ppf = staticmethod(beta_logpdf), staticmethod(beta_ppf)

    def __init__(self, a, b, weights):
        from scipy.special import betaln, expit, logit

        super().__init__(weights, a, b)
        a, b = self.params
        self.coef = np.stack([a - 1.0, b - 1.0, -betaln(a, b)])
        self.coordinate, self.point = logit, expit

    def basis(self, t):
        return np.log(t), np.log1p(-t)


_PROBE_UNIFORM = 4096
_PROBE_LEVELS = 65
_PROBE_MEMBER_CAP = 512
_EVEN_SHARE = 0.125


def mass_grid(members: _Members) -> np.ndarray:
    """Mass-covering grid that equidistributes |f''|^(1/3) of the mixture.

    Composite-trapezoid error over one cell is h^3 |f''| / 12, so
    equidistributing |f''|^(1/3) minimizes the total for a fixed point
    count. Curvature is probed on a fine auxiliary grid seeded with
    per-member quantiles so that narrow members are never missed. The probe
    and _EVEN_SHARE of the cells are even in the members' coordinate.
    """
    lo = float(np.min(members.ppf(DEFAULT_COVERAGE)))
    hi = float(np.max(members.ppf(1.0 - DEFAULT_COVERAGE)))
    with np.errstate(divide="ignore"):
        ends = members.coordinate(np.array([lo, hi]))
    if not np.all(np.isfinite(ends)):
        edges = " and ".join(repr(e) for e, c in zip((lo, hi), ends) if not np.isfinite(c))
        raise NumericalError(f"density diverges at the support edge {edges}; pass an explicit grid (--grid)")

    # probe guidance can ignore negligible members; their curvature share
    # is bounded by their total weight
    order = np.argsort(-members.weights, kind="stable")
    idx = np.sort(order[:_PROBE_MEMBER_CAP])
    levels = np.linspace(DEFAULT_COVERAGE, 1.0 - DEFAULT_COVERAGE, _PROBE_LEVELS)
    quantiles = np.clip(members.ppf(levels[:, None], idx), lo, hi)
    s = np.unique(np.concatenate([np.linspace(*ends, _PROBE_UNIFORM), members.coordinate(quantiles.ravel())]))
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
    check_marginal_indices(wp.k, j, wp.family, category, wp.slot_width - 1)
    if wp.family == "poisson":
        return _GammaMembers(*_gamma_update(wp, j), wp.weights), f"lambda{j + 1}"
    aggregates, beta = _key_columns(wp.key_array, wp.k)[j, 1:], wp.prior.components[j].concentration
    a = beta[category] + aggregates[category]
    return _BetaMembers(a, _dirichlet_total(aggregates, beta) - a, wp.weights), f"q{j + 1},{category + 1}"


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
    check_marginal_indices(wp.k, j)
    counts = _key_columns(wp.key_array, wp.k)[j, 0]
    alpha = wp.prior.alpha
    members = _BetaMembers(counts + alpha[j], wp.n - counts + fsum(alpha) - alpha[j], wp.weights)
    return _marginal(members, f"p{j + 1}", grid)
