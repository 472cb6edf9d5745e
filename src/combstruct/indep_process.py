"""The independent process Z (and its refinement Y) under the tilted measure.

Z_i are independent with laws fixed by the structure kind, the free
parameter x > 0, and the component-count bias theta > 0:

    assembly   Z_i ~ Poisson(theta m_i x^i / i!)
    multiset   Z_i ~ NegativeBinomial(m_i, theta x^i)       (x < 1, theta x < 1)
    selection  Z_i ~ Binomial(m_i, theta x^i / (1 + theta x^i))

The refined variables Y_ij (j = 1..m_i) are Poisson(theta x^i / i!),
Geometric(theta x^i), or Bernoulli, and convolve back to Z_i.

Also here: moments of the weighted sum T_n = sum i Z_i, and solvers /
closed-form prescriptions for choosing x so that E T_n is close to n.
All per-index parameters are formed in log space; m_i may exceed double
range, so means, variances, and pmfs never materialize float(m_i) unless it
is safe.  log m_i comes from the family's float log_m_fn (lgamma, log-space
sums), so no float route builds the exact integers; the binomial and
negative-binomial laws of selections and multisets keep their exact integer
m_i as the law's parameter.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

import numpy as np
from scipy.special import expit, gammaln, log_expit

from .errors import NumericGuardError, ParameterDomainError
from .structures import Kind, Numeric, StructureSpec, log_big

_LOG_TINY = math.log(1e-8)


@dataclass(frozen=True)
class TiltedParams:
    """Free parameter x and bias theta defining the measure P_theta."""

    x: Numeric
    theta: Numeric = 1

    def __post_init__(self):
        if not (self.x > 0 and self.theta > 0):
            raise ParameterDomainError("x and theta must be positive")
        try:
            finite = math.isfinite(self.x) and math.isfinite(self.theta)
        except OverflowError:  # an int or Fraction beyond double range
            finite = False
        if not finite:
            raise ParameterDomainError("x and theta must be finite")

    def validate(self, spec: StructureSpec) -> "TiltedParams":
        if spec.kind is Kind.MULTISET:
            if not (self.x < 1 and self.theta * self.x < 1):
                raise ParameterDomainError(
                    f"multiset tilt needs x < 1 and theta*x < 1, got "
                    f"x={float(self.x)}, theta*x={float(self.theta * self.x)}")
        return self

    @property
    def fx(self) -> float:
        return float(self.x)

    @property
    def ftheta(self) -> float:
        return float(self.theta)


# ---------------------------------------------------------------------------
# cached per-spec arrays
# ---------------------------------------------------------------------------

def log_m_array(spec: StructureSpec, n: int) -> np.ndarray:
    """array L with L[i] = log m_i for i = 0..n (L[0] = -inf; -inf where m_i = 0).

    Filled by spec.log_m_fn, or from the exact m_i for specs without one;
    a refill at least doubles the cached length, so callers that walk i
    upwards (z_law per index) pay for O(log n) fills.
    """
    key = "log_m"
    arr = spec._table_cache.get(key)
    if arr is None or len(arr) <= n:
        size = n if arr is None else max(n, 2 * (len(arr) - 1))
        if spec.log_m_fn is not None:
            arr = spec.log_m_fn(size)
        else:
            arr = np.array([-np.inf] + [log_big(spec.m(i))
                                        for i in range(1, size + 1)])
        spec._table_cache[key] = arr
    return arr[: n + 1]


def log_weight_array(spec: StructureSpec, n: int, params: TiltedParams) -> np.ndarray:
    """w[i] = log(theta x^i), i = 0..n."""
    i = np.arange(n + 1, dtype=float)
    return math.log(params.ftheta) + i * math.log(params.fx)


def mean_var_arrays(spec: StructureSpec, n: int,
                    params: TiltedParams) -> tuple[np.ndarray, np.ndarray]:
    """(E Z_i)_{i<=n} and (Var Z_i)_{i<=n} as arrays (index 0 is zero)."""
    params.validate(spec)
    lm = log_m_array(spec, n)
    lw = log_weight_array(spec, n, params)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is Kind.ASSEMBLY:
            lam = np.exp(lm + lw - gammaln(np.arange(n + 1) + 1.0))
            mean = var = lam
        elif spec.kind is Kind.MULTISET:
            t = np.exp(lw)
            mp = np.exp(lm + lw)
            mean = mp / (1.0 - t)
            var = mp / (1.0 - t) ** 2
        else:
            # logistic-stable: p* = sigma(lw), E = m p*, Var = m p* (1 - p*)
            sig = expit(lw)
            mean = np.exp(lm + log_expit(lw))
            var = mean * (1.0 - sig)
    mean = np.where(np.isfinite(mean), mean, np.inf)
    var = np.where(np.isfinite(var), var, np.inf)
    mean[0] = var[0] = 0.0
    return mean, var


@contextmanager
def overflow_guard(what: str):
    """Reports an OverflowError of the float arithmetic inside as a numeric
    guard: a per-index value beyond double range means x is too large."""
    try:
        yield
    except OverflowError as exc:
        raise NumericGuardError(
            f"{what} beyond double range; choose a smaller x") from exc


def _safe_mlog1p(log_m: float, t: float, log_t: float) -> float:
    """m*log1p(-t) for t in [0,1), where m may be astronomically large."""
    if log_m == -math.inf:
        return 0.0
    if t >= 1.0:
        raise ParameterDomainError("probability parameter reached 1")
    if log_t > _LOG_TINY and log_m < 700:
        return math.exp(log_m) * math.log1p(-t)
    # log1p(-t) ~ -t(1 + t/2); remainder below double precision for t <= 1e-8
    s = log_m + log_t
    return -math.exp(s) * (1.0 + t / 2.0) if s < 700 else -math.inf


# ---------------------------------------------------------------------------
# per-index laws
# ---------------------------------------------------------------------------

class Family(Enum):
    POISSON = "poisson"
    NEG_BINOMIAL = "negative_binomial"
    BINOMIAL = "binomial"
    GEOMETRIC = "geometric"
    BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class DiscreteLaw:
    """One nonnegative-integer law.

    Poisson(lam); NegBin(m, p) with p the geometric weight theta x^i;
    Binomial(m, p) with p = theta x^i / (1 + theta x^i); Geometric and
    Bernoulli are their m = 1 specials.  lw = log(theta x^i) backs all
    log-space evaluation; m stays exact (int or Fraction).
    """

    family: Family
    lam: float = 0.0
    m: Numeric = 0
    p: float = 0.0
    lw: float = -math.inf

    def mean(self) -> float:
        if self.family is Family.POISSON:
            return self.lam
        lm = log_big(self.m)
        if lm == -math.inf:
            return 0.0
        if self.family in (Family.NEG_BINOMIAL, Family.GEOMETRIC):
            t = math.exp(self.lw)
            return math.exp(lm + self.lw) / (1.0 - t)
        return math.exp(lm + float(log_expit(self.lw)))

    def var(self) -> float:
        if self.family is Family.POISSON:
            return self.lam
        lm = log_big(self.m)
        if lm == -math.inf:
            return 0.0
        if self.family in (Family.NEG_BINOMIAL, Family.GEOMETRIC):
            t = math.exp(self.lw)
            return math.exp(lm + self.lw) / (1.0 - t) ** 2
        return self.mean() * (1.0 - float(expit(self.lw)))

    def log_pmf(self, k: int) -> float:
        if k < 0:
            return -math.inf
        if self.family is Family.POISSON:
            if self.lam == 0.0:
                return 0.0 if k == 0 else -math.inf
            return -self.lam + k * math.log(self.lam) - math.lgamma(k + 1)
        lm = log_big(self.m)
        if self.family in (Family.NEG_BINOMIAL, Family.GEOMETRIC):
            t = math.exp(self.lw)
            return (_log_rising(self.m, lm, k) - math.lgamma(k + 1)
                    + _safe_mlog1p(lm, t, self.lw) + k * self.lw)
        # binomial in log-odds form: C(m,k) e^{k lw} / (1 + e^{lw})^m
        lf = _log_falling(self.m, lm, k)
        if lf == -math.inf:
            return -math.inf
        return lf - math.lgamma(k + 1) + k * self.lw - _m_softplus(lm, self.lw)

    def pmf(self, k: int) -> float:
        return math.exp(self.log_pmf(k))

    def pmf_array(self, k_max: int) -> np.ndarray:
        """[pmf(0), ..., pmf(k_max)] in O(k_max) work: the terms of log_pmf
        in the same order, with log m taken once and the rising/falling
        products accumulated over k instead of rebuilt for each k."""
        ks = range(k_max + 1)
        if self.family is Family.POISSON:
            if self.lam == 0.0:
                return np.array([1.0] + [0.0] * k_max)
            ll = math.log(self.lam)
            logs = [-self.lam + k * ll - math.lgamma(k + 1) for k in ks]
        else:
            lm = log_big(self.m)
            if self.family in (Family.NEG_BINOMIAL, Family.GEOMETRIC):
                c = _safe_mlog1p(lm, math.exp(self.lw), self.lw)
                lr = _log_rising_list(self.m, lm, k_max)
                logs = [lr[k] - math.lgamma(k + 1) + c + k * self.lw for k in ks]
            else:
                c = _m_softplus(lm, self.lw)
                lf = _log_falling_list(self.m, lm, k_max)
                logs = [lf[k] - math.lgamma(k + 1) + k * self.lw - c for k in ks]
        return np.array([math.exp(v) for v in logs])


def _m_softplus(lm: float, lw: float) -> float:
    """m * log(1 + e^{lw}), big-m safe."""
    if lm == -math.inf:
        return 0.0
    sp = math.log1p(math.exp(lw)) if lw < 30 else lw + math.exp(-lw)
    if lm < 700:
        return math.exp(lm) * sp
    out = lm + math.log(sp)
    return math.exp(out) if out < 700 else math.inf


def _log_rising(m: Numeric, lm: float, k: int) -> float:
    """log m(m+1)...(m+k-1), big-m safe."""
    if k == 0:
        return 0.0
    if lm == -math.inf:
        return -math.inf
    if lm < 34:  # m < ~6e14: lgamma is exact enough
        fm = float(m)
        return math.lgamma(fm + k) - math.lgamma(fm)
    return k * lm + sum(math.log1p(j * math.exp(-lm)) for j in range(1, k))


def _log_falling(m: Numeric, lm: float, k: int) -> float:
    """log m(m-1)...(m-k+1); -inf when the product vanishes (k > m)."""
    if k == 0:
        return 0.0
    if lm == -math.inf:
        return -math.inf
    if lm < 34:
        fm = float(m)
        acc = 0.0
        for j in range(k):
            t = fm - j
            if t <= 0:
                return -math.inf
            acc += math.log(t)
        return acc
    return k * lm + sum(math.log1p(-j * math.exp(-lm)) for j in range(1, k))


def _log_rising_list(m: Numeric, lm: float, k_max: int) -> list:
    """[_log_rising(m, lm, k) for k = 0..k_max] with one running sum."""
    if lm == -math.inf:
        return [0.0] + [-math.inf] * k_max
    if lm < 34:
        fm = float(m)
        l0 = math.lgamma(fm)
        return [math.lgamma(fm + k) - l0 for k in range(k_max + 1)]
    step = math.exp(-lm)
    sums = itertools.accumulate(
        (math.log1p(j * step) for j in range(1, k_max)), initial=0.0)
    return [0.0] + [k * lm + s for k, s in zip(range(1, k_max + 1), sums)]


def _log_falling_list(m: Numeric, lm: float, k_max: int) -> list:
    """[_log_falling(m, lm, k) for k = 0..k_max] with one running sum."""
    if lm == -math.inf:
        return [0.0] + [-math.inf] * k_max
    if lm < 34:
        fm = float(m)
        out, acc = [0.0], 0.0
        for j in range(k_max):
            if fm - j <= 0:
                return out + [-math.inf] * (k_max - j)
            acc += math.log(fm - j)
            out.append(acc)
        return out
    step = math.exp(-lm)
    sums = itertools.accumulate(
        (math.log1p(-j * step) for j in range(1, k_max)), initial=0.0)
    return [0.0] + [k * lm + s for k, s in zip(range(1, k_max + 1), sums)]


def z_law(spec: StructureSpec, i: int, params: TiltedParams) -> DiscreteLaw:
    """Law of Z_i under P_theta."""
    if i < 1:
        raise ParameterDomainError("index must be >= 1")
    params.validate(spec)
    lw = math.log(params.ftheta) + i * math.log(params.fx)
    if spec.kind is Kind.ASSEMBLY:
        lm = float(log_m_array(spec, i)[i])
        with overflow_guard(f"Poisson mean of Z_{i}"):
            lam = math.exp(lm + lw - math.lgamma(i + 1))
        return DiscreteLaw(Family.POISSON, lam=lam)
    mi = spec.m(i)
    if spec.kind is Kind.MULTISET:
        fam = Family.GEOMETRIC if mi == 1 else Family.NEG_BINOMIAL
        return DiscreteLaw(fam, m=mi, p=math.exp(lw), lw=lw)
    fam = Family.BERNOULLI if mi == 1 else Family.BINOMIAL
    return DiscreteLaw(fam, m=mi, p=float(expit(lw)), lw=lw)


def refined_y_law(spec: StructureSpec, i: int, params: TiltedParams) -> DiscreteLaw:
    """Law of one refined coordinate Y_ij; the m_i-fold convolution is z_law."""
    if i < 1:
        raise ParameterDomainError("index must be >= 1")
    params.validate(spec)
    lw = math.log(params.ftheta) + i * math.log(params.fx)
    if spec.kind is Kind.ASSEMBLY:
        with overflow_guard(f"Poisson mean of Y_{i}j"):
            lam = math.exp(lw - math.lgamma(i + 1))
        return DiscreteLaw(Family.POISSON, lam=lam)
    if spec.kind is Kind.MULTISET:
        return DiscreteLaw(Family.GEOMETRIC, m=1, p=math.exp(lw), lw=lw)
    return DiscreteLaw(Family.BERNOULLI, m=1, p=float(expit(lw)), lw=lw)


# ---------------------------------------------------------------------------
# moments of T_n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumMoments:
    mean: float
    variance: float


def sum_moments(spec: StructureSpec, n: int, params: TiltedParams) -> SumMoments:
    """E T_n = sum i E Z_i and Var T_n = sum i^2 Var Z_i as exact finite sums.

    A sum beyond double range is inf (choose_x's bracket doubling asks for
    such x on purpose).
    """
    mean, var = mean_var_arrays(spec, n, params)
    i = np.arange(n + 1, dtype=float)
    with np.errstate(over="ignore"):
        et, vt = float(np.dot(i, mean)), float(np.dot(i * i, var))
    return SumMoments(mean=et if math.isfinite(et) else math.inf,
                      variance=vt if math.isfinite(vt) else math.inf)


# ---------------------------------------------------------------------------
# choosing the free parameter x
# ---------------------------------------------------------------------------

class XStrategy(Enum):
    EXACT_MEAN = "exact_mean"
    LOGARITHMIC = "logarithmic"
    LOGARITHMIC_TILTED = "logarithmic_tilted"
    SET_PARTITION = "set_partition"
    INTEGER_PARTITION = "integer_partition"
    DISTINCT_PARTITION = "distinct_partition"
    DISTINCT_ODD_PARTITION = "distinct_odd_partition"


def solve_xex(n: float) -> float:
    """Solve x e^x = n by Newton on x + log x = log n."""
    if n <= 0:
        raise ParameterDomainError("need n > 0")
    target = math.log(n)
    x = max(target - math.log(max(target, 1.0)), min(n, 0.5))
    for _ in range(200):
        f = x + math.log(x) - target
        x_new = x - f / (1.0 + 1.0 / x)
        if x_new <= 0:
            x_new = x / 2
        if abs(x_new - x) <= 1e-15 * x_new:
            return x_new
        x = x_new
    return x


_STRATEGY_BUILTIN = {
    XStrategy.SET_PARTITION: "set_partitions",
    XStrategy.INTEGER_PARTITION: "integer_partitions",
    XStrategy.DISTINCT_PARTITION: "distinct_partitions",
    XStrategy.DISTINCT_ODD_PARTITION: "distinct_odd_partitions",
}


def choose_x(spec: StructureSpec, n: int, theta: Numeric = 1,
             strategy: Union[XStrategy, str] = XStrategy.EXACT_MEAN) -> float:
    """A value of x for approximating weight-n structures.

    EXACT_MEAN solves E_theta T_n = n by bracketed bisection (bracket found
    by doubling; residual <= 1e-9 n).  The closed-form strategies return the
    standard prescriptions: x = 1/y for the logarithmic class, the tilted
    x = e^{-c/n}/y with c = kappa*theta - 1, the root of x e^x = n for set
    partitions, and exp(-pi/sqrt(6n)) / exp(-pi/sqrt(12n)) / exp(-pi/sqrt(24n))
    for integer / distinct / distinct-odd partitions.
    """
    strategy = XStrategy(strategy) if not isinstance(strategy, XStrategy) else strategy
    builtin = spec.params.get("builtin")
    want = _STRATEGY_BUILTIN.get(strategy)
    if want is not None:
        if builtin != want:
            raise ParameterDomainError(
                f"{strategy.value} strategy applies to the {want} builtin only")
        if strategy is XStrategy.SET_PARTITION:
            return solve_xex(n)
        denom = {XStrategy.INTEGER_PARTITION: 6.0,
                 XStrategy.DISTINCT_PARTITION: 12.0,
                 XStrategy.DISTINCT_ODD_PARTITION: 24.0}[strategy]
        return math.exp(-math.pi / math.sqrt(denom * n))
    if strategy in (XStrategy.LOGARITHMIC, XStrategy.LOGARITHMIC_TILTED):
        if spec.meta is None:
            raise ParameterDomainError("logarithmic strategies need (kappa, y) metadata")
        x = 1.0 / spec.meta.y
        if strategy is XStrategy.LOGARITHMIC_TILTED:
            c = float(spec.meta.kappa) * float(theta) - 1.0
            x *= math.exp(-c / n)
        return x
    return _solve_exact_mean(spec, n, theta)


def _solve_exact_mean(spec: StructureSpec, n: int, theta: Numeric) -> float:
    def mean_at(x: float) -> float:
        return sum_moments(spec, n, TiltedParams(x=x, theta=theta)).mean

    hi_cap = math.inf
    if spec.kind is Kind.MULTISET:
        hi_cap = min(1.0, 1.0 / float(theta)) * (1.0 - 1e-12)
    lo = min(1.0, hi_cap / 2) if math.isfinite(hi_cap) else 1.0
    while mean_at(lo) > n:
        lo /= 2.0
        if lo < 1e-300:
            raise ParameterDomainError("E T_n > n for every representable x")
    hi = lo
    while mean_at(hi) < n:
        if hi >= hi_cap:
            raise ParameterDomainError(
                f"sup_x E T_n = {mean_at(hi_cap):.6g} < n = {n} at the supremum "
                f"x = {hi_cap:.17g}; no exact-mean solution for this multiset")
        hi = min(hi * 2.0, hi_cap)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < n:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    x = 0.5 * (lo + hi)
    if abs(mean_at(x) - n) > 1e-9 * n:
        raise NumericGuardError(
            f"exact-mean bisection stalled: E T_n = {mean_at(x)} at x = {x}")
    return x
