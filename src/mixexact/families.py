"""Exponential-family components and their conjugate priors.

Three observation families are supported: Poisson counts with Gamma priors
on the mean, multinomial count vectors with Dirichlet priors on the cell
probabilities, and real observations with Normal-Inverse-Gamma priors on
(mean, variance). Each prior knows how to absorb a group statistic, report
its log normalizing constant and give its posterior mean. The marginal
densities and quantiles of the mean-value parameters are free closed forms,
and all Gamma-heavy arithmetic stays in log space.

log Gamma, the one special function of the weights and the evidence, is an
in-package port of Cephes `lgam` that returns `scipy.special.gammaln`'s bits,
so only the density closed forms import `scipy.special`, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# Cephes `lgam` (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), which `scipy.special.gammaln` runs for x > 0: x B(x)/C(x)
# on [2, 3) below 13 and Stirling's series above. Every log is libm's, as in
# the C code; numpy's SIMD log differs from it in the last bit.
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_NUMERATOR = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_DENOMINATOR = (  # after a leading coefficient of 1
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LOG_SQRT_2PI = 0.91893853320467274178
_LGAM_OVERFLOW = 2.556348e305


def _lgam(x: float) -> float:
    """log Gamma(x) of one double x >= 0, or of nan."""
    if x < 13.0:
        if x < 0.0:
            raise ValueError(f"log Gamma is ported for nonnegative arguments only, got {x!r}")
        # shift into [2, 3), keeping the product of the shifts in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        num, den = _NUMERATOR[0], x + _DENOMINATOR[0]
        for b in _NUMERATOR[1:]:
            num = num * x + b
        for c in _DENOMINATOR[1:]:
            den = den * x + c
        return math.log(z) + x * num / den
    if x > _LGAM_OVERFLOW:
        return math.inf
    if x != x:
        return x
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        s = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
    else:
        s = _STIRLING[0]
        for a in _STIRLING[1:]:
            s = s * p + a
    return q + s / x


def gammaln(x):
    """log Gamma(x) for x >= 0, bitwise `scipy.special.gammaln`'s.

    A scalar gives a float. An array gives an array of its shape, with one
    evaluation per distinct value.
    """
    if isinstance(x, (float, int)):
        return _lgam(float(x))
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return _lgam(float(x))
    distinct, inverse = np.unique(x.ravel(), return_inverse=True)
    return np.fromiter(map(_lgam, distinct.tolist()), float, distinct.size)[inverse].reshape(x.shape)


# Closed forms shared by the oracle and the density grids. They
# broadcast over points and parameters alike; densities outside the support
# have log 0 = -inf, and the support edge carries its limit (+inf, finite or
# -inf by the shape). Each imports what it needs of scipy.special on first
# use, which keeps that import out of every process that draws no density.


def gamma_logpdf(t, shape, rate):
    """log density of Gamma(shape, rate) at t."""
    from scipy.special import xlogy

    t = np.asarray(t, dtype=float)
    y = rate * t
    out = xlogy(shape - 1.0, y) - y - gammaln(shape) + np.log(rate)
    return np.where(t < 0, -np.inf, out)[()]


def gamma_ppf(u, shape, rate):
    """Point with lower-tail mass u under Gamma(shape, rate)."""
    from scipy.special import gammaincinv

    return gammaincinv(shape, u) / rate


def gamma_isf(q, shape, rate):
    """Point with upper-tail mass q under Gamma(shape, rate)."""
    from scipy.special import gammainccinv

    return gammainccinv(shape, q) / rate


def beta_logpdf(t, a, b):
    """log density of Beta(a, b) at t."""
    from scipy.special import betaln, xlog1py, xlogy

    t = np.asarray(t, dtype=float)
    out = xlogy(a - 1.0, t) + xlog1py(b - 1.0, -t) - betaln(a, b)
    return np.where((t < 0) | (t > 1), -np.inf, out)[()]


def beta_ppf(u, a, b):
    """Point with lower-tail mass u under Beta(a, b)."""
    from scipy.special import betaincinv

    return betaincinv(a, b, u)


def student_t_logpdf(t, df, loc, scale):
    """log density of Student-t(df, loc, scale) at t, for scalar df and scale."""
    from scipy.special import poch

    z = (np.asarray(t, dtype=float) - loc) / scale
    return (
        math.log(poch(0.5 * df, 0.5))
        - 0.5 * (math.log(df) + math.log(math.pi))
        - 0.5 * (df + 1.0) * np.log1p(z * z / df)
        - math.log(scale)
    )


@dataclass(frozen=True)
class GroupStat:
    """Sufficient statistic of one allocated group: size and summed R(x)."""

    count: int
    total: tuple[float, ...]

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"group count must be nonnegative, got {self.count}")
        if self.count == 0 and any(t != 0 for t in self.total):
            raise ValueError("empty group must carry the zero aggregate")


@dataclass(frozen=True)
class PoissonGamma:
    """Gamma(shape, rate) prior on a Poisson mean."""

    shape: float
    rate: float

    family: ClassVar[str] = "poisson"

    def __post_init__(self):
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ValueError(f"Gamma shape must be positive, got {self.shape}")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"Gamma rate must be positive, got {self.rate}")

    def updated(self, stat: GroupStat) -> "PoissonGamma":
        if stat.count == 0:
            return self
        return PoissonGamma(self.shape + stat.total[0], self.rate + stat.count)

    def log_partition(self) -> float:
        return float(gammaln(self.shape) - self.shape * math.log(self.rate))

    def posterior_mean(self) -> tuple[float, ...]:
        return (self.shape / self.rate,)


@dataclass(frozen=True)
class DirichletMultinomial:
    """Dirichlet prior on the cell probabilities of a multinomial component."""

    concentration: tuple[float, ...]

    family: ClassVar[str] = "multinomial"

    def __post_init__(self):
        object.__setattr__(self, "concentration", tuple(float(b) for b in self.concentration))
        if len(self.concentration) < 2:
            raise ValueError("multinomial components need at least two categories")
        if not all(b > 0 and math.isfinite(b) for b in self.concentration):
            raise ValueError(f"Dirichlet concentration must be positive, got {self.concentration}")

    @property
    def categories(self) -> int:
        return len(self.concentration)

    def updated(self, stat: GroupStat) -> "DirichletMultinomial":
        if stat.count == 0:
            return self
        if len(stat.total) != self.categories:
            raise ValueError("statistic width does not match category count")
        return DirichletMultinomial(tuple(b + s for b, s in zip(self.concentration, stat.total)))

    def log_partition(self) -> float:
        return float(sum(gammaln(b) for b in self.concentration) - gammaln(sum(self.concentration)))

    def posterior_mean(self) -> tuple[float, ...]:
        total = sum(self.concentration)
        return tuple(b / total for b in self.concentration)


@dataclass(frozen=True)
class NormalInverseGamma:
    """Conjugate prior for a normal component with unknown mean and variance.

    mu | sigma^2 ~ N(location, sigma^2 / precision_scale)
    sigma^(-2)   ~ Gamma(shape / 2, scale / 2)
    """

    location: float
    precision_scale: float
    shape: float
    scale: float

    family: ClassVar[str] = "normal"

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise ValueError(f"location must be finite, got {self.location}")
        for name in ("precision_scale", "shape", "scale"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive, got {value}")

    def updated(self, stat: GroupStat) -> "NormalInverseGamma":
        n = stat.count
        if n == 0:
            return self
        t1, t2 = stat.total
        xbar = t1 / n
        c_new = self.precision_scale + n
        loc_new = (self.precision_scale * self.location + t1) / c_new
        # n * sigma-hat^2; clamped at 0 against float cancellation
        ss = max(t2 - t1 * t1 / n, 0.0)
        shift = self.precision_scale * n / c_new * (xbar - self.location) ** 2
        return NormalInverseGamma(loc_new, c_new, self.shape + n, self.scale + ss + shift)

    def log_partition(self) -> float:
        half_shape = 0.5 * self.shape
        return float(
            0.5 * LOG_2PI
            - 0.5 * math.log(self.precision_scale)
            + gammaln(half_shape)
            - half_shape * math.log(0.5 * self.scale)
        )

    def posterior_mean(self) -> tuple[float, ...]:
        return (self.location,)


ComponentPrior = Union[PoissonGamma, DirichletMultinomial, NormalInverseGamma]

Observation = Union[int, float, tuple]


def infer_family(obs: Observation) -> str:
    """Family of a bare observation: tuple, integer or real (NumPy scalars too)."""
    if isinstance(obs, bool):
        raise ValueError(f"not a supported observation: {obs!r}")
    if isinstance(obs, tuple):
        return "multinomial"
    if isinstance(obs, (int, np.integer)):
        return "poisson"
    if isinstance(obs, (float, np.floating)):
        return "normal"
    raise ValueError(f"not a supported observation: {obs!r}")


def observe(family: str, obs: Observation, categories: int | None = None) -> tuple[tuple, float]:
    """R(x) and log h(x) of one observation; ValueError unless it is one of the family.

    R(x) is the sufficient statistic the conjugate update absorbs, and h(x)
    the allocation-free data factor of the likelihood. Integer counts become
    Python ints before any arithmetic, so NumPy scalars never wrap.
    """
    if family == "poisson":
        if not isinstance(obs, (int, np.integer)) or isinstance(obs, bool) or obs < 0:
            raise ValueError(f"Poisson observation must be a nonnegative integer, got {obs!r}")
        x = int(obs)
        # log Gamma runs on the double nearest x + 1
        return (x,), -gammaln(float(x + 1))
    if family == "multinomial":
        if not isinstance(obs, tuple) or len(obs) < 2:
            raise ValueError(f"multinomial observation must be a tuple of >= 2 counts, got {obs!r}")
        if categories is not None and len(obs) != categories:
            raise ValueError(f"expected {categories} categories, got {len(obs)}")
        counts = tuple(int(c) for c in obs if isinstance(c, (int, np.integer)) and not isinstance(c, bool))
        if len(counts) < len(obs) or min(counts) < 0:
            raise ValueError(f"multinomial counts must be nonnegative integers, got {obs!r}")
        d = sum(counts)
        if d < 1:
            raise ValueError(f"multinomial observation must have a positive total, got {obs!r}")
        return counts, gammaln(float(d + 1)) - sum(gammaln(float(c + 1)) for c in counts)
    if family == "normal":
        if isinstance(obs, bool) or not isinstance(obs, (int, float, np.floating, np.integer)):
            raise ValueError(f"normal observation must be a finite real, got {obs!r}")
        x = float(obs)
        if not math.isfinite(x):
            raise ValueError(f"normal observation must be finite, got {obs!r}")
        return (x, x * x), -0.5 * LOG_2PI
    raise ValueError(f"unknown family {family!r}")
