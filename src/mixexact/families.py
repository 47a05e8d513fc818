"""Exponential-family components and their conjugate priors.

Three observation families are supported: Poisson counts with Gamma priors
on the mean, multinomial count vectors with Dirichlet priors on the cell
probabilities, and real observations with Normal-Inverse-Gamma priors on
(mean, variance). Each prior knows how to absorb a group statistic, report
its log normalizing constant and give its posterior mean. The marginal
densities and quantiles of the mean-value parameters are free closed forms
over `scipy.special`, and all Gamma-heavy arithmetic stays in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np
from scipy.special import (
    betaincinv,
    betaln,
    gammainccinv,
    gammaincinv,
    gammaln,
    poch,
    xlog1py,
    xlogy,
)

LOG_2PI = math.log(2.0 * math.pi)


# Closed forms shared by the oracle and the density grids. They
# broadcast over points and parameters alike; densities outside the support
# have log 0 = -inf, and the support edge carries its limit (+inf, finite or
# -inf by the shape).


def gamma_logpdf(t, shape, rate):
    """log density of Gamma(shape, rate) at t."""
    t = np.asarray(t, dtype=float)
    y = rate * t
    out = xlogy(shape - 1.0, y) - y - gammaln(shape) + np.log(rate)
    return np.where(t < 0, -np.inf, out)[()]


def gamma_ppf(u, shape, rate):
    """Point with lower-tail mass u under Gamma(shape, rate)."""
    return gammaincinv(shape, u) / rate


def gamma_isf(q, shape, rate):
    """Point with upper-tail mass q under Gamma(shape, rate)."""
    return gammainccinv(shape, q) / rate


def beta_logpdf(t, a, b):
    """log density of Beta(a, b) at t."""
    t = np.asarray(t, dtype=float)
    out = xlogy(a - 1.0, t) + xlog1py(b - 1.0, -t) - betaln(a, b)
    return np.where((t < 0) | (t > 1), -np.inf, out)[()]


def beta_ppf(u, a, b):
    """Point with lower-tail mass u under Beta(a, b)."""
    return betaincinv(a, b, u)


def student_t_logpdf(t, df, loc, scale):
    """log density of Student-t(df, loc, scale) at t, for scalar df and scale."""
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


def check_observation(family: str, obs: Observation, categories: int | None = None) -> None:
    """Raise ValueError unless obs is a valid observation of the family."""
    if family == "poisson":
        if not isinstance(obs, (int, np.integer)) or isinstance(obs, bool) or obs < 0:
            raise ValueError(f"Poisson observation must be a nonnegative integer, got {obs!r}")
    elif family == "multinomial":
        if not isinstance(obs, tuple) or len(obs) < 2:
            raise ValueError(f"multinomial observation must be a tuple of >= 2 counts, got {obs!r}")
        if categories is not None and len(obs) != categories:
            raise ValueError(f"expected {categories} categories, got {len(obs)}")
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 0 for c in obs):
            raise ValueError(f"multinomial counts must be nonnegative integers, got {obs!r}")
        if sum(obs) < 1:
            raise ValueError(f"multinomial observation must have a positive total, got {obs!r}")
    elif family == "normal":
        if isinstance(obs, bool) or not isinstance(obs, (int, float, np.floating, np.integer)):
            raise ValueError(f"normal observation must be a finite real, got {obs!r}")
        if not math.isfinite(float(obs)):
            raise ValueError(f"normal observation must be finite, got {obs!r}")
    else:
        raise ValueError(f"unknown family {family!r}")


def observation_statistic(family: str, obs: Observation) -> tuple:
    """The sufficient statistic R(x) of one observation."""
    if family == "poisson":
        return (int(obs),)
    if family == "multinomial":
        return tuple(int(c) for c in obs)
    if family == "normal":
        x = float(obs)
        return (x, x * x)
    raise ValueError(f"unknown family {family!r}")


def log_base_measure(family: str, obs: Observation) -> float:
    """log h(x): the allocation-free data factor of the likelihood."""
    if family == "poisson":
        return float(-gammaln(obs + 1))
    if family == "multinomial":
        d = sum(obs)
        return float(gammaln(d + 1) - sum(gammaln(c + 1) for c in obs))
    if family == "normal":
        return -0.5 * LOG_2PI
    raise ValueError(f"unknown family {family!r}")
