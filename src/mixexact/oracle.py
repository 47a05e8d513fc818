"""Brute-force ground truth over all k**n component allocations.

The oracle computes every posterior quantity by the defining sums, one
allocation vector at a time, and is the verification target for the
lattice engine. It also covers the normal family, where no lattice is
available; there, allocations are grouped by partition structure (the
multiset of observations in each component slot) so no floating-point
statistic ever serves as a map key.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import families, posterior
from .errors import NumericalError, OracleCapError
from .families import GroupStat, fsum, gammaln
from .posterior import MixturePrior, PosteriorSummary

DEFAULT_ORACLE_CAP = 2**24


def enumerate_allocations(n: int, k: int, cap: int = DEFAULT_ORACLE_CAP) -> Iterator[tuple[int, ...]]:
    """All k**n allocation vectors with entries in 1..k, lexicographic."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if k**n > cap:
        raise OracleCapError(f"k^n = {k}^{n} = {k**n} exceeds the oracle cap {cap}")
    return itertools.product(range(1, k + 1), repeat=n)


def log_unnormalized_weight(
    stat: Sequence[GroupStat], multiplicity: int, prior: MixturePrior
) -> float:
    """log weight of one allocation statistic (includes log multiplicity).

    The per-component factor is log K(updated) - log K(prior), which makes
    the weight exactly the complete-data marginal likelihood contribution
    of the statistic, up to the shared base measure and Dirichlet constant.
    """
    if len(stat) != prior.k:
        raise ValueError(f"statistic has {len(stat)} slots for k={prior.k}")
    n = sum(s.count for s in stat)
    alpha = prior.alpha
    value = math.log(multiplicity)
    value += fsum(gammaln(s.count + a) for s, a in zip(stat, alpha))
    value -= gammaln(n + fsum(alpha))
    for comp, s in zip(prior.components, stat):
        value += comp.updated(s).log_partition() - comp.log_partition()
    return float(value)


def _stats_row(key: tuple, k: int, family: str) -> tuple[GroupStat, ...]:
    if family == "normal":
        return tuple(
            GroupStat(len(g), (fsum(g), fsum(x * x for x in g)) if g else (0, 0)) for g in key
        )
    w = len(key) // k
    return tuple(GroupStat(key[j * w], key[j * w + 1 : (j + 1) * w]) for j in range(k))


def _categories(prior: MixturePrior) -> int | None:
    return prior.components[0].categories if prior.family == "multinomial" else None


def _observed(data: Sequence, family: str, categories: int | None) -> tuple[list[tuple], float]:
    """R(x) of each observation and log h of the data.

    Every entry point reads the data here, once per observation, through
    `families.observe`, which checks it against the category count when it
    is multinomial, so no entry point enumerates invalid data.
    """
    observed = [families.observe(family, obs, categories) for obs in data]
    return [r for r, _ in observed], fsum(log_h for _, log_h in observed)


def _allocations(
    stats: list[tuple], k: int, family: str, cap: int
) -> Iterator[tuple[tuple[int, ...], tuple, tuple[GroupStat, ...]]]:
    """Every allocation vector z with its statistic key and per-slot GroupStat row.

    Discrete keys are (count, aggregate...) per slot, and allocations with
    equal keys share one row.
    """
    allocations = enumerate_allocations(len(stats), k, cap)
    rows: dict = {}
    for z in allocations:
        if family == "normal":
            groups: list[list[float]] = [[] for _ in range(k)]
            for r, zi in zip(stats, z):
                groups[zi - 1].append(r[0])  # R(x) = (x, x^2)
            # sort values, never sums: distinct statistics correspond exactly to
            # distinct per-component multisets, no float arithmetic in the key
            key = tuple(tuple(sorted(g)) for g in groups)
        else:
            slots = [[0] * (len(stats[0]) + 1) for _ in range(k)]
            for r, zi in zip(stats, z):
                slot = slots[zi - 1]
                slot[0] += 1
                for u, v in enumerate(r, start=1):
                    slot[u] += v
            key = tuple(v for slot in slots for v in slot)
        row = rows.get(key)
        if row is None:
            row = rows[key] = _stats_row(key, k, family)
        yield z, key, row


def _grouped(stats: list[tuple], k: int, family: str, cap: int) -> dict:
    """{key: [multiplicity, GroupStat row]} over all allocations."""
    grouped: dict = {}
    for _, key, row in _allocations(stats, k, family, cap):
        grouped.setdefault(key, [0, row])[0] += 1
    return grouped


@dataclass(frozen=True)
class OracleResult:
    """Grouped brute-force posterior: one row per distinct statistic."""

    prior: MixturePrior
    n: int
    keys: tuple
    multiplicities: tuple[int, ...]
    group_stats: tuple[tuple[GroupStat, ...], ...]
    log_weights: np.ndarray
    weights: np.ndarray
    log_evidence: float

    @property
    def family(self) -> str:
        return self.prior.family

    @property
    def k(self) -> int:
        return self.prior.k

    def component_posteriors(self, i: int) -> tuple:
        return tuple(c.updated(s) for c, s in zip(self.prior.components, self.group_stats[i]))

    def expected_weights(self) -> np.ndarray:
        total = self.n + fsum(self.prior.alpha)
        rows = [[(s.count + a) / total for s, a in zip(row, self.prior.alpha)] for row in self.group_stats]
        return _weighted_sums(self.weights, rows)

    def expected_means(self) -> np.ndarray:
        rows = [[p.posterior_mean() for p in self.component_posteriors(i)] for i in range(len(self.keys))]
        return _weighted_sums(self.weights, rows)

    def mass_concentration(self, threshold: float = 0.99) -> int:
        if not (0 < threshold <= 1):
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        order = sorted(range(len(self.keys)), key=lambda i: (-self.weights[i], self.keys[i]))
        acc = 0.0
        for rank, i in enumerate(order, start=1):
            acc += float(self.weights[i])
            if acc >= threshold:
                return rank
        return len(order)

    def component_density(self, j: int, grid, category: int | None = None) -> posterior.DensityGrid:
        """Mean-parameter marginal by the defining sum over grouped terms."""
        posterior.check_marginal_indices(self.k, j, self.family, category, _categories(self.prior))
        grid = np.asarray(grid, dtype=float)
        dens = np.zeros(grid.size)
        param = f"lambda{j + 1}" if self.family == "poisson" else f"mu{j + 1}"
        for i in range(len(self.keys)):
            post = self.component_posteriors(i)[j]
            if self.family == "poisson":
                logpdf = families.gamma_logpdf(grid, post.shape, post.rate)
            elif self.family == "multinomial":
                # one Dirichlet coordinate is Beta(b_u, sum(b) - b_u)
                b_u = post.concentration[category]
                logpdf = families.beta_logpdf(grid, b_u, fsum(post.concentration) - b_u)
                param = f"q{j + 1},{category + 1}"
            else:
                # mu is Student-t with df = shape
                scale = math.sqrt(post.scale / (post.shape * post.precision_scale))
                logpdf = families.student_t_logpdf(grid, post.shape, post.location, scale)
            dens += float(self.weights[i]) * np.exp(logpdf)
        return posterior.DensityGrid(param, grid, dens)

    def weight_density(self, j: int, grid) -> posterior.DensityGrid:
        posterior.check_marginal_indices(self.k, j)
        grid = np.asarray(grid, dtype=float)
        alpha = self.prior.alpha
        rest = fsum(alpha) - alpha[j]
        dens = np.zeros(grid.size)
        for i in range(len(self.keys)):
            n_j = self.group_stats[i][j].count
            dens += float(self.weights[i]) * np.exp(
                families.beta_logpdf(grid, n_j + alpha[j], self.n - n_j + rest)
            )
        return posterior.DensityGrid(f"p{j + 1}", grid, dens)

    def summary(self) -> PosteriorSummary:
        return PosteriorSummary(
            family=self.family,
            k=self.k,
            n=self.n,
            distinct=len(self.keys),
            mass99=self.mass_concentration(0.99),
            log_evidence=self.log_evidence,
            expected_weights=tuple(self.expected_weights().tolist()),
            expected_means=tuple(map(tuple, self.expected_means().tolist())),
        )


def _weighted_sums(weights: np.ndarray, rows: list) -> np.ndarray:
    """Sums over e of weights[e] * rows[e], each correctly rounded: (E, ...) rows give (...)."""
    products = np.moveaxis(np.asarray(rows, dtype=float), 0, -1) * weights  # (..., E)
    sums = [fsum(column) for column in products.reshape(-1, len(weights)).tolist()]
    return np.array(sums).reshape(products.shape[:-1])


def _log_sum(log_terms: list) -> float:
    """log of the sum of exp(log_terms), the sum correctly rounded."""
    top = max(log_terms)
    return top + math.log(fsum(math.exp(x - top) for x in log_terms))


def oracle_posterior(data: Sequence, prior: MixturePrior, cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
    """Posterior by direct summation over every allocation vector."""
    family = prior.family
    n, k = len(data), prior.k
    stats, log_base = _observed(data, family, _categories(prior))
    grouped = _grouped(stats, k, family, cap)
    keys = sorted(grouped)
    mults = [grouped[key][0] for key in keys]
    group_stats = [grouped[key][1] for key in keys]

    with np.errstate(all="ignore"):
        logw = np.array([log_unnormalized_weight(row, mult, prior) for row, mult in zip(group_stats, mults)])
        log_m = _log_sum(logw.tolist()) + prior.log_dirichlet_constant() + log_base
    if not (np.all(np.isfinite(logw)) and math.isfinite(log_m)):
        raise NumericalError("oracle log weights or log evidence overflow double precision")
    shifted = np.exp(logw - logw.max())
    weights = shifted / shifted.sum()
    return OracleResult(
        prior=prior,
        n=n,
        keys=tuple(keys),
        multiplicities=tuple(mults),
        group_stats=tuple(group_stats),
        log_weights=logw,
        weights=weights,
        log_evidence=log_m,
    )


def oracle_distinct_statistics(data: Sequence, k: int) -> int:
    """Number of distinct canonical statistics over all k**n allocations."""
    if len(data) == 0:
        raise ValueError("dataset must be non-empty")
    family = families.infer_family(data[0])
    # the first observation sets the category count, as in lattice.build
    categories = len(data[0]) if family == "multinomial" else None
    return len(_grouped(_observed(data, family, categories)[0], k, family, DEFAULT_ORACLE_CAP))


def weight_table_csv(data: Sequence, prior: MixturePrior, cap: int = DEFAULT_ORACLE_CAP) -> str:
    """Per-allocation debug table: allocation string, statistic, log weight."""
    family = prior.family
    k = prior.k
    lines = ["allocation,statistic,log_weight"]
    stats, _ = _observed(data, family, _categories(prior))
    for z, key, stats_row in _allocations(stats, k, family, cap):
        if family == "normal":
            stat_text = " ".join(
                f"{s.count}:{s.total[0]!r}:{s.total[1]!r}" for s in stats_row
            )
        else:
            stat_text = " ".join(str(v) for v in key)
        logw = log_unnormalized_weight(stats_row, 1, prior)
        lines.append(f"{''.join(str(zi) for zi in z)},{stat_text},{logw!r}")
    return "\n".join(lines) + "\n"


def compare_report(wp: posterior.WeightedPosterior, oracle_result: OracleResult) -> tuple[bool, float, str]:
    """Engine-vs-oracle comparison over keys, weights, moments, evidence."""
    if wp.family != oracle_result.family or wp.k != oracle_result.k:
        return False, math.inf, "MISMATCH different model"
    if tuple(wp.keys) != tuple(oracle_result.keys):
        return False, math.inf, "MISMATCH statistic keys differ"
    if tuple(wp.multiplicities) != tuple(oracle_result.multiplicities):
        return False, math.inf, "MISMATCH multiplicities differ"

    def rel(a: np.ndarray, b: np.ndarray) -> float:
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        return float(np.max(np.abs(a - b) / scale))

    deviations = [
        rel(wp.weights, oracle_result.weights),
        rel(posterior.expected_weights(wp), oracle_result.expected_weights()),
        rel(
            posterior.expected_component_means(wp).reshape(-1),
            oracle_result.expected_means().reshape(-1),
        ),
        rel(wp.log_evidence, oracle_result.log_evidence),
    ]
    worst = max(deviations)
    ok = worst <= 1e-10
    verdict = "MATCH" if ok else "MISMATCH"
    return ok, worst, f"{verdict} entries={len(wp.keys)} max_rel={worst:.3e}"


def quadrature_evidence(data: Sequence, prior: MixturePrior) -> float:
    """Evidence with every K constant replaced by numerical integration.

    Independent check of the closed-form normalizers: for each allocation,
    each component's complete-data integral is evaluated by quadrature
    (1-D for Poisson means, 2-D for normal mean/variance). Deliberately
    slow; refuse datasets beyond desk scale.
    """
    from scipy import integrate  # slow to import; only this check needs it

    if len(data) > 4:
        raise ValueError("quadrature check is limited to n <= 4")
    family = prior.family
    if family not in ("poisson", "normal"):
        raise ValueError(f"quadrature check supports poisson and normal, got {family!r}")
    k = prior.k
    n = len(data)

    def component_integral(comp, stat: GroupStat) -> float:
        post = comp.updated(stat)
        if family == "poisson":
            shape, rate = post.shape, post.rate
            upper = float(families.gamma_isf(1e-16, shape, rate))
            value, _ = integrate.quad(
                lambda t: t ** (shape - 1.0) * math.exp(-rate * t),
                0.0,
                upper,
                epsabs=0.0,
                epsrel=1e-12,
                limit=200,
            )
            return value
        # nested quadrature over the precision tau = 1/sigma^2 (outer) and
        # the mean (inner). Given tau the mean integrand is Gaussian, so
        # both axes have exponential tails; integrating the mean first
        # would leave polynomial Student-t tails that truncate badly
        loc, c, a, b = post.location, post.precision_scale, post.shape, post.scale
        tau_hi = 1.2 * float(families.gamma_isf(1e-16, 0.5 * a, 0.5 * b))

        def inner(tau: float) -> float:
            sd = 1.0 / math.sqrt(tau * c)
            gauss, _ = integrate.quad(
                lambda mu: math.exp(-0.5 * tau * c * (mu - loc) ** 2),
                loc - 12.0 * sd,
                loc + 12.0 * sd,
                epsabs=0.0,
                epsrel=1e-12,
            )
            return tau ** (0.5 * (a - 1.0)) * math.exp(-0.5 * tau * b) * gauss

        value, _ = integrate.quad(inner, 0.0, tau_hi, epsabs=0.0, epsrel=1e-11, limit=300)
        return value

    alpha = prior.alpha
    log_terms = []
    stats, log_base = _observed(data, family, _categories(prior))
    for _, _, stats_row in _allocations(stats, k, family, DEFAULT_ORACLE_CAP):
        term = fsum(math.lgamma(s.count + a_j) for s, a_j in zip(stats_row, alpha)) - math.lgamma(n + fsum(alpha))
        for comp, s in zip(prior.components, stats_row):
            term += math.log(component_integral(comp, s)) - comp.log_partition()
        log_terms.append(term)
    return _log_sum(log_terms) + prior.log_dirichlet_constant() + log_base
