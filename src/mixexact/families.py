"""Exponential-family components and their conjugate priors.

Three observation families are supported: Poisson counts with Gamma priors
on the mean, multinomial count vectors with Dirichlet priors on the cell
probabilities, and real observations with Normal-Inverse-Gamma priors on
(mean, variance). Each prior knows how to absorb a group statistic, report
its log normalizing constant and give its posterior mean. The marginal
densities and quantiles of the mean-value parameters are free closed forms,
and all Gamma-heavy arithmetic stays in log space.

log Gamma, the one special function of the weights and the evidence, is an
in-package port of Cephes `lgam` that returns `scipy.special.gammaln`'s bits.
The density closed forms and the Gamma and Beta quantiles of the grids are
built on it and numpy, so no part of the package imports `scipy.special`.
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


def per_distinct(fn, values: np.ndarray) -> np.ndarray:
    """fn of each element of a 1-D array as a float array, one call per
    distinct value: `np.unique` sorts them, and fn runs on their Python
    images (floats, or the ints of an integer or object array)."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.fromiter(map(fn, distinct.tolist()), float, distinct.size)[inverse]


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
    return per_distinct(_lgam, x.ravel()).reshape(x.shape)


def fsum(values) -> float:
    """The correctly rounded sum of floats (`math.fsum`, after Shewchuk
    1997), the rule for every scalar float sum, so no total depends on the
    interpreter's `sum()` or on the order of the terms. Where `math.fsum`
    raises, on finite terms whose partial sums leave the float range or on
    infinities of both signs, the in-sequence sum gives what `sum()` gives:
    an infinity, or nan."""
    values = tuple(values)
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        total = 0.0
        for value in values:
            total += value
        return total


# Closed forms shared by the oracle and the density grids. They
# broadcast over points and parameters alike; densities outside the support
# have log 0 = -inf, and the support edge carries its limit (+inf, finite or
# -inf by the shape). They run on numpy and the log Gamma above alone.


def _stirling(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi)) for x >= 13:
    the Stirling series of `_lgam`."""
    r = 1.0 / x
    p = r * r
    s = np.full_like(p, _STIRLING[0])
    for c in _STIRLING[1:]:
        s = s * p + c
    return s * r


def betaln(a, b):
    """log B(a, b) for positive a and b.

    Where the larger shape reaches 13, log Gamma(big) - log Gamma(big +
    small) is one Stirling difference, -(big - 1/2) log1p(small / big) -
    small log(big + small) + small + the series' tails, which keeps its
    digits however far big outgrows small.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    small, big = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    out = gammaln(small)
    far = big >= 13.0
    s, g = small[far], big[far]
    out[far] += (
        _stirling(g) - _stirling(g + s) + s - (g - 0.5) * np.log1p(s / g) - s * np.log(g + s)
    )
    near = ~far
    out[near] += gammaln(big[near]) - gammaln(small[near] + big[near])
    return out.reshape(a.shape)[()]


def logit(t):
    """log(t / (1 - t))."""
    t = np.asarray(t, dtype=float)
    return np.log(t / (1.0 - t))[()]


def expit(y):
    """1 / (1 + exp(-y)), the inverse of `logit`."""
    with np.errstate(over="ignore"):
        return (1.0 / (1.0 + np.exp(-np.asarray(y, dtype=float))))[()]


def _softplus(y: np.ndarray) -> np.ndarray:
    """log(1 + exp(y)) without overflow: -log t = softplus(-y) and
    -log(1 - t) = softplus(y) for y = logit t."""
    return np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - exp(x)) for x <= 0, the log of the other tail."""
    with np.errstate(divide="ignore"):
        return np.where(x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


def _erfc(x: np.ndarray) -> np.ndarray:
    """libm's erfc (`math.erfc`) of each element; numpy has none."""
    return np.fromiter(map(math.erfc, x.tolist()), float, x.size)


# Incomplete Gamma and Beta functions, in log space. Each row of a
# series or continued fraction runs until its terms stop moving it, and
# drops out then; a row still moving after _MAX_TERMS terms gives nan. No
# row they are given needs more than 173 (shapes below _TEMME_SHAPE for
# Gamma and _CONVOLVE_SHAPE for Beta, at any point).
_EPS = 2.0**-50
_TINY = 1e-300  # the modified Lentz floor of a vanishing denominator
_MAX_TERMS = 2**10


def _gamma_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_{n>=0} x^n / (a (a + 1) ... (a + n)), so that P(a, x) is it
    times x^a e^-x / Gamma(a) (the series of Numerical Recipes' gser)."""
    out = np.full(a.size, np.nan)
    rows = np.arange(a.size)
    term = 1.0 / a
    total, shift = term.copy(), a.copy()
    for _ in range(_MAX_TERMS):
        shift += 1.0
        term *= x / shift
        total += term
        done = term <= total * _EPS
        if done.any():
            out[rows[done]] = total[done]
            rows, x, term, total, shift = (v[~done] for v in (rows, x, term, total, shift))
        if not rows.size:
            break
    return out


def _floor(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _gamma_fraction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction of Q(a, x) for x >= max(a, 1), by the modified
    Lentz method, so that Q(a, x) is it times x^a e^-x / Gamma(a) (gcf)."""
    out = np.full(a.size, np.nan)
    rows = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(a.size, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / _floor(an * d + b)
        c = _floor(b + an / c)
        step = d * c
        h *= step
        done = np.abs(step - 1.0) <= _EPS
        if done.any():
            out[rows[done]] = h[done]
            rows, a, b, c, d, h = (v[~done] for v in (rows, a, b, c, d, h))
        if not rows.size:
            break
    return out


def _beta_fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b) by the modified Lentz method, so
    that I_x(a, b) is it times x^a (1 - x)^b / (a B(a, b)); it converges
    fast for x < (a + 1) / (a + b + 2) (Numerical Recipes' betacf)."""
    out = np.full(a.size, np.nan)
    rows = np.arange(a.size)
    c = np.ones(a.size)
    d = 1.0 / _floor(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    for m in range(1, _MAX_TERMS):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / _floor(1.0 + even * d)
        c = _floor(1.0 + even / c)
        h *= d * c
        d = 1.0 / _floor(1.0 + odd * d)
        c = _floor(1.0 + odd / c)
        step = d * c
        h *= step
        done = np.abs(step - 1.0) <= _EPS
        if done.any():
            out[rows[done]] = h[done]
            rows, a, b, x, c, d, h = (v[~done] for v in (rows, a, b, x, c, d, h))
        if not rows.size:
            break
    return out


# Temme's uniform expansion of Q(a, x) (N. M. Temme, SIAM J. Math. Anal.
# 10, 1979; as Cephes `igam` uses it): with lambda = x / a and
# eta^2 / 2 = lambda - 1 - log lambda, eta of the sign of lambda - 1,
#   Q = erfc(eta sqrt(a / 2)) / 2 + exp(-a eta^2 / 2) / sqrt(2 pi a) sum_k C_k(eta) a^-k
# and P = 1 - Q. Rows are C_0..C_3 as Taylor coefficients in eta, from the
# series of lambda(eta) and C_k = C_{k-1}' / eta + gamma_k / (lambda - 1),
# gamma_k those of 1 / Gamma*(a), in exact rationals; these terms hold
# the sum to the double for shapes from _TEMME_SHAPE and |eta| <= 1/2.
_TEMME = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
        -5.0276692801141755e-12, 1.1004392031956135e-13, 3.371763262400985e-13,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
    ),
)
_TEMME_SHAPE = 1000.0
_TEMME_HALF_ETA2 = 0.125
_FAR_ERFC = 26.0  # erfc underflows past here; its asymptotic series holds to 1e-11


def _half_eta2(w: np.ndarray) -> np.ndarray:
    """lambda - 1 - log lambda at lambda = e^w, that is expm1(w) - w, by
    its Taylor series sum_{n>=2} w^n / n! where |w| < 1/2."""
    out = np.expm1(w) - w
    near = np.abs(w) < 0.5
    v = w[near]
    s = np.full_like(v, 1.0 / math.factorial(18))
    for n in range(17, 1, -1):
        s = s * v + 1.0 / math.factorial(n)
    out[near] = s * v * v
    return out


def _temme_tail(a: np.ndarray, w: np.ndarray, half_eta2: np.ndarray) -> np.ndarray:
    """log of the smaller tail by Temme's expansion: Q where w >= 0, else P."""
    eta = np.copysign(np.sqrt(2.0 * half_eta2), w)
    zeta2 = a * half_eta2
    zeta = np.sqrt(zeta2)
    series = np.zeros_like(a)
    for row in reversed(_TEMME):
        c = np.full_like(eta, row[-1])
        for coef in row[-2::-1]:
            c = c * eta + coef
        series = series / a + c
    # P = erfc(zeta) / 2 - R below the mode, Q = erfc(zeta) / 2 + R above it
    r = np.where(w < 0.0, -series, series) / np.sqrt(2.0 * math.pi * a)
    out = np.empty_like(a)
    far = zeta >= _FAR_ERFC
    near = ~far
    out[near] = np.log(0.5 * _erfc(zeta[near]) + np.exp(-zeta2[near]) * r[near])
    z, z2 = zeta[far], zeta2[far]
    erfcx = (1.0 - 0.5 / z2 + 0.75 / (z2 * z2) - 1.875 / (z2 * z2 * z2)) / (z * math.sqrt(math.pi))
    out[far] = -z2 + np.log(0.5 * erfcx + r[far])
    return out


def _gamma_log_scale(a: np.ndarray) -> np.ndarray:
    """c(a) in the log density -a (e^w - 1 - w) + c(a) of w = log(x / a)
    under Gamma(a, 1): a log a - a - log Gamma(a), which from a = 13 on is
    log sqrt(a / (2 pi)) minus the Stirling tail, with no a log a to
    cancel against log Gamma(a)."""
    out = np.empty_like(a)
    s, large = a < 13.0, a >= 13.0
    out[s] = a[s] * np.log(a[s]) - a[s] - gammaln(a[s])
    out[large] = 0.5 * np.log(a[large] / (2.0 * math.pi)) - _stirling(a[large])
    return out


def _gamma_log_tails(a: np.ndarray, scale: np.ndarray, w: np.ndarray):
    """log P(a, x), log Q(a, x) and the log density of w = log(x / a), at
    w, for Gamma(a, 1), given scale = `_gamma_log_scale(a)`.

    The smaller tail is computed (series below max(a, 1), continued
    fraction above, as in Cephes `igam`; Temme's expansion near the mode
    from _TEMME_SHAPE on) and the other is log1p(-its exp).
    """
    with np.errstate(over="ignore"):  # x and e^w past the doubles: Q is 0
        x = a * np.exp(w)
        half_eta2 = _half_eta2(w)
    log_density = scale - a * half_eta2
    temme = (a >= _TEMME_SHAPE) & (half_eta2 <= _TEMME_HALF_ETA2)
    series = ~temme & (x < np.maximum(a, 1.0))
    fraction = ~temme & ~series & np.isfinite(x)
    upper = ~series  # which tail `tail` holds
    upper[temme] = w[temme] >= 0.0
    tail = np.full_like(w, -np.inf)  # Q where x overflows
    tail[temme] = _temme_tail(a[temme], w[temme], half_eta2[temme])
    with np.errstate(divide="ignore"):
        tail[series] = log_density[series] + np.log(_gamma_series(a[series], x[series]))
        tail[fraction] = log_density[fraction] + np.log(_gamma_fraction(a[fraction], x[fraction]))
    other = _log1mexp(tail)
    return np.where(upper, other, tail), np.where(upper, tail, other), log_density


# shapes from which Beta tails are Gamma convolutions, and their nodes
_CONVOLVE_SHAPE = 1e4
_CONVOLVE_SPREADS = 24.0
_CONVOLVE_STEP = 1.0 / 3.0


def _beta_fraction_tails(a: np.ndarray, b: np.ndarray, lbeta: np.ndarray, y: np.ndarray):
    """`_beta_log_tails` by the continued fraction, run on the tail it
    converges for, with t or 1 - t taken from y so that neither rounds to
    0 or 1 first."""
    log_density = -a * _softplus(-y) - b * _softplus(y) - lbeta
    swap = y >= np.log((a + 1.0) / (b + 1.0))
    p, q = np.where(swap, b, a), np.where(swap, a, b)
    with np.errstate(divide="ignore"):
        tail = log_density - np.log(p) + np.log(_beta_fraction(p, q, expit(np.where(swap, -y, y))))
    other = _log1mexp(tail)
    return np.where(swap, other, tail), np.where(swap, tail, other), log_density


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log of the sum of exp(x) along the last axis."""
    top = np.max(x, axis=-1)
    safe = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return safe + np.log(np.sum(np.exp(x - safe[:, None]), axis=-1))


def _beta_convolution_tails(a: np.ndarray, b: np.ndarray, lbeta: np.ndarray, y: np.ndarray):
    """`_beta_log_tails` as Gamma tails averaged over the larger shape.

    With G_a, G_b independent Gamma(a), Gamma(b), X = G_a / (G_a + G_b) is
    Beta(a, b), and X <= t is G_b / G_a >= e^-y. With L the larger shape,
    S the smaller and w = log(G_L / L), each tail of X is a Gamma(S) tail
    at log(G_S / S) = w -+ v, v = y - log(a / b), averaged over w, and so
    is the density of y. The density of w is narrow (spread 1 /
    sqrt(L)) and the Gamma(S) tails are smooth on its scale, so the
    trapezoid rule on nodes _CONVOLVE_STEP spreads apart, out to
    _CONVOLVE_SPREADS spreads, sums the average to the double.
    """
    big, small = np.maximum(a, b), np.minimum(a, b)
    flip = a >= b  # the Gamma(S) upper tail is X's lower one
    v = y - (np.log(a) - np.log(b))
    spread = 1.0 / np.sqrt(big)
    nodes = np.arange(-_CONVOLVE_SPREADS, _CONVOLVE_SPREADS + _CONVOLVE_STEP / 2, _CONVOLVE_STEP)
    w = nodes * spread[:, None]
    log_weight = (_gamma_log_scale(big) + np.log(_CONVOLVE_STEP * spread))[:, None] - big[:, None] * _half_eta2(
        w.ravel()
    ).reshape(w.shape)
    u = w - np.where(flip, v, -v)[:, None]
    tails = _gamma_log_tails(np.repeat(small, nodes.size), np.repeat(_gamma_log_scale(small), nodes.size), u.ravel())
    lower, upper, density = (_logsumexp(log_weight + t.reshape(u.shape)) for t in tails)
    return np.where(flip, upper, lower), np.where(flip, lower, upper), density


def _beta_log_tails(a: np.ndarray, b: np.ndarray, lbeta: np.ndarray, y: np.ndarray):
    """log I_t(a, b), log(1 - I_t(a, b)) and the log density of y = logit t,
    at y, given lbeta = log B(a, b): by the continued fraction below
    _CONVOLVE_SHAPE, where it is short, and as a Gamma convolution from
    there on."""
    out = np.empty((3, y.size))
    large = np.maximum(a, b) >= _CONVOLVE_SHAPE
    for rows, tails in ((~large, _beta_fraction_tails), (large, _beta_convolution_tails)):
        if rows.any():
            out[:, rows] = tails(a[rows], b[rows], lbeta[rows], y[rows])
    return tuple(out)


_NEWTON_STEPS = 64
_NEWTON_TOL = 2.0**-40


def _newton(log_tails, params, y, target, upper, bound):
    """The coordinate y of each row where its log tail mass, upper where
    `upper` and lower elsewhere, equals `target`.

    The coordinate's density is log-concave (Gamma in log t, Beta in
    logit t), so both log tail masses are concave in y. A Newton step on a
    concave monotone function lands on the root's outer side from either
    side, and from there the iterates close in on the root monotonically.
    `bound` bounds the root on that outer side, and every iterate is
    clipped to it, so a first step from where the tail is flat stays
    finite. A row stops after a step below _NEWTON_TOL of max(|y|, 1),
    where convergence is quadratic, or after a step that turns back from
    the third step on, which only rounding in the tails does. A row whose
    tails are nan, or that has not stopped after _NEWTON_STEPS steps,
    gives nan.
    """
    out = np.full(y.size, np.nan)
    rows = np.arange(y.size)
    last = np.zeros(y.size)
    for k in range(_NEWTON_STEPS):
        lower_tail, upper_tail, log_density = log_tails(*params, y)
        tail = np.where(upper, upper_tail, lower_tail)
        with np.errstate(over="ignore", invalid="ignore"):
            step = np.where(tail == target, 0.0, (tail - target) * np.exp(tail - log_density))
        new = np.where(upper, np.minimum(y + step, bound), np.maximum(y - step, bound))
        step = new - y
        done = np.abs(step) <= _NEWTON_TOL * np.maximum(np.abs(y), 1.0)
        if k >= 2:
            done |= step * last < 0.0
        out[rows[done]] = new[done]
        keep = ~done & ~np.isnan(new)
        if not keep.any():
            break
        rows, y, last, target, upper, bound = (v[keep] for v in (rows, new, step, target, upper, bound))
        params = tuple(p[keep] for p in params)
    return out


def _normal_start(log_mass: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Standard normal point with the given log tail mass, to about 5e-4
    (Abramowitz and Stegun 26.2.23): where the Laplace start sits."""
    t = np.sqrt(-2.0 * np.minimum(log_mass, math.log(0.5)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return np.where(upper, z, -z)


def _levels(lower, upper_mass, *params):
    """Broadcast tail masses and parameters to flat float arrays, with the
    rows that need a solve (both masses positive) and the tail each solves
    for: the smaller one, as its log."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lower, upper_mass, *params)))
    shape = arrays[0].shape
    lower, upper_mass, *params = (v.ravel() for v in arrays)
    inner = (lower > 0.0) & (upper_mass > 0.0)
    upper = upper_mass[inner] < lower[inner]
    target = np.log(np.where(upper, upper_mass[inner], lower[inner]))
    return shape, lower, upper_mass, params, inner, upper, target


def _gamma_quantile(lower, upper_mass, shape, rate):
    """Point of Gamma(shape, rate) with the given lower and upper tail masses.

    Newton runs in w = log(x / shape) from the Laplace point w = z /
    sqrt(shape), clipped to a bound of the root: P(a, x) <= x^a / Gamma(a +
    1) below, and the Chernoff bound Q(a, a (1 + s)) <= exp(-a s^2 / (2 (1
    + s))) above. The point is shape e^w / rate, so a shape whose spread
    1 / sqrt(shape) is below an ulp gives shape / rate exactly.
    """
    dims, lower, upper_mass, (a, rate), inner, upper, target = _levels(lower, upper_mass, shape, rate)
    out = np.where(upper_mass == 0.0, np.inf, 0.0)
    out[np.isnan(lower + upper_mass + a + rate)] = np.nan
    a_in = a[inner]
    m = -target / a_in
    bound = np.where(
        upper,
        np.log1p(2.0 * m + np.sqrt(2.0 * m)),
        (target + gammaln(a_in + 1.0)) / a_in - np.log(a_in),
    )
    start = _normal_start(target, upper) / np.sqrt(a_in)
    start = np.where(upper, np.minimum(start, bound), np.maximum(start, bound))
    w = _newton(_gamma_log_tails, (a_in, _gamma_log_scale(a_in)), start, target, upper, bound)
    with np.errstate(over="ignore"):
        out[inner] = a_in * np.exp(w) / rate[inner]
    return out.reshape(dims)[()]


def gamma_ppf(u, shape, rate):
    """Point with lower-tail mass u under Gamma(shape, rate)."""
    u = np.asarray(u, dtype=float)
    return _gamma_quantile(u, 1.0 - u, shape, rate)


def gamma_isf(q, shape, rate):
    """Point with upper-tail mass q under Gamma(shape, rate)."""
    q = np.asarray(q, dtype=float)
    return _gamma_quantile(1.0 - q, q, shape, rate)


def beta_ppf(u, a, b):
    """Point with lower-tail mass u under Beta(a, b).

    Newton runs in y = logit t on the smaller tail, an upper one as the
    lower tail of Beta(b, a) at -y, from the Laplace point log(a / b) +
    z sqrt(1/a + 1/b), clipped to the bound I_t(a, b) <= t^a max(1,
    2^(1 - b)) / (a B(a, b)), which for b < 1 holds up to t = 1/2 only.
    """
    u = np.asarray(u, dtype=float)
    dims, lower, upper_mass, (a, b), inner, upper, target = _levels(u, 1.0 - u, a, b)
    out = np.where(upper_mass == 0.0, 1.0, 0.0)
    out[np.isnan(lower + upper_mass + a + b)] = np.nan
    p, q = np.where(upper, b[inner], a[inner]), np.where(upper, a[inner], b[inner])
    lower_tail = np.zeros(p.size, dtype=bool)
    start = np.log(p / q) + _normal_start(target, lower_tail) * np.sqrt(1.0 / p + 1.0 / q)
    lbeta = betaln(p, q)
    log_edge = (target + np.log(p) + lbeta - np.maximum(1.0 - q, 0.0) * math.log(2.0)) / p
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(log_edge < 0.0, log_edge - np.log(-np.expm1(log_edge)), np.inf)
    bound = np.where(q < 1.0, np.minimum(bound, 0.0), bound)
    y = _newton(_beta_log_tails, (p, q, lbeta), np.maximum(start, bound), target, lower_tail, bound)
    out[inner] = expit(np.where(upper, -y, y))
    return out.reshape(dims)[()]


def gamma_logpdf(t, shape, rate):
    """log density of Gamma(shape, rate) at t."""
    t = np.asarray(t, dtype=float)
    y = rate * t
    with np.errstate(divide="ignore", invalid="ignore"):
        # (shape - 1) log y, 0 where shape is 1 (scipy's xlogy)
        power = np.where(shape == 1.0, 0.0, (shape - 1.0) * np.log(y))
    out = power - y - gammaln(shape) + np.log(rate)
    return np.where(t < 0, -np.inf, out)[()]


def beta_logpdf(t, a, b):
    """log density of Beta(a, b) at t."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        left = np.where(a == 1.0, 0.0, (a - 1.0) * np.log(t))
        right = np.where(b == 1.0, 0.0, (b - 1.0) * np.log1p(-t))
    out = left + right - betaln(a, b)
    return np.where((t < 0) | (t > 1), -np.inf, out)[()]


def student_t_logpdf(t, df, loc, scale):
    """log density of Student-t(df, loc, scale) at t, for scalar df and scale."""
    z = (np.asarray(t, dtype=float) - loc) / scale
    return (
        (_lgam(0.5 * df + 0.5) - _lgam(0.5 * df))
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
        return fsum(map(gammaln, self.concentration)) - gammaln(fsum(self.concentration))

    def posterior_mean(self) -> tuple[float, ...]:
        total = fsum(self.concentration)
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
        return counts, gammaln(float(d + 1)) - fsum(gammaln(float(c + 1)) for c in counts)
    if family == "normal":
        if isinstance(obs, bool) or not isinstance(obs, (int, float, np.floating, np.integer)):
            raise ValueError(f"normal observation must be a finite real, got {obs!r}")
        x = float(obs)
        if not math.isfinite(x):
            raise ValueError(f"normal observation must be finite, got {obs!r}")
        return (x, x * x), -0.5 * LOG_2PI
    raise ValueError(f"unknown family {family!r}")
