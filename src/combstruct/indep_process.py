"""The independent process Z (and its refinement Y) under the tilted measure.

Z_i are independent with laws fixed by the structure kind, the free
parameter x > 0, and the component-count bias theta > 0:

    assembly   Z_i ~ Poisson(theta m_i x^i / i!)
    multiset   Z_i ~ NegativeBinomial(m_i, theta x^i)       (x < 1, theta x < 1)
    selection  Z_i ~ Binomial(m_i, theta x^i / (1 + theta x^i))

The refined variables Y_ij (j = 1..m_i) are Poisson(theta x^i / i!),
NegativeBinomial(1, theta x^i) (geometric) or Binomial(1, .) (Bernoulli),
and convolve back to Z_i.  A DiscreteLaw has three families, the m = 1
laws are not separate ones, and one route evaluates its pmf: pmf_array,
whose entry k pmf(k) reads.  Means and variances come from
mean_var_arrays, with log i! from the per-request log_factorial_array
that the seed, g and the laws read too.

Also here: moments of the weighted sum T_n = sum i Z_i, and solvers /
closed-form prescriptions for choosing x so that E T_n is close to n.
All per-index parameters are formed in log space; m_i may exceed double
range, so means, variances, and pmfs never materialize float(m_i) unless it
is safe.  log m_i comes from the family's float log_m_fn (lgamma, log-space
sums), so no float route builds the exact integers; the binomial and
negative-binomial laws of selections and multisets keep their exact integer
m_i as the law's parameter.

log P(Z_i = 0) at big m_i has one implementation, the array function
log_p_zero.  The recursion seed sumdist.log_seed sums its values over an
index set, and every per-index law (z_law, refined_y_law, a DiscreteLaw
built by hand) carries its value, which pmf_array reads.  The
per-index callers read one array per request (log_p_zero_array), so no
caller pays an array call per index.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

import numpy as np
from scipy.special import expit, log_expit

from .errors import NumericGuardError, ParameterDomainError
from .structures import Kind, Numeric, StructureSpec, log_big

_LOG_TINY = math.log(1e-8)
_LOG_EPS = math.log(2.0 ** -53)  # log1p(t) = t to double precision below it
_LOG_DBL_MIN = math.log(2.0 ** -1022)  # e^lw is subnormal below it


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


def log_factorial_array(spec: StructureSpec, n: int) -> np.ndarray:
    """[log 0!, ..., log n!] by math.lgamma (scipy's gammaln differs from it
    by up to 4 ulps, i.e. 4e-12 relative in g(i) at i = 1000).

    Kept in spec._table_cache, which lives for one request; a refill at
    least doubles the cached length and computes only the new entries.
    """
    arr = spec._table_cache.get("log_factorial")
    if arr is None or len(arr) <= n:
        old = 0 if arr is None else len(arr)
        size = n if arr is None else max(n, 2 * (old - 1))
        new = np.fromiter(map(math.lgamma, range(old + 1, size + 2)), float,
                          size + 1 - old)
        arr = new if arr is None else np.concatenate((arr, new))
        spec._table_cache["log_factorial"] = arr
    return arr[: n + 1]


def log_p_zero(kind: Kind, lm, lw, log_fact=0.0) -> np.ndarray:
    """log P(Z_i = 0), elementwise, from lm = log m_i and lw = log(theta x^i);
    m_i may be far beyond double range.

    assembly   -lambda_i = -e^(lm + lw - log_fact), log_fact = log i!; -inf
               where lambda_i is beyond double range, which the callers that
               need lambda_i report as an overflow.
    multiset   m log1p(-t), t = e^lw.  Where t <= 1e-8 or m >= e^700 it is
               -e^(lm + lw) (1 + t/2), since log1p(-t) = -t(1 + t/2) to
               double precision there, and -inf past e^700.  A t that rounds
               to 1 at an index with m != 0 raises ParameterDomainError.
    selection  -m sp with sp = log(1 + e^lw) (lw + e^-lw above lw = 30):
               -e^lm sp while m < e^700 and e^lw is a normal double, else
               -e^(lm + log sp), -inf past e^700; log sp = lw below
               log 2^-53, where a subnormal or zero e^lw would lose the
               digits of log sp.
    Entries with m_i = 0 (lm = -inf) are 0.
    """
    lm, lw = np.asarray(lm, dtype=float), np.asarray(lw, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if kind is Kind.ASSEMBLY:
            return -np.exp(lm + lw - log_fact)
        if kind is Kind.MULTISET:
            t = np.exp(lw)
            if np.any((t >= 1.0) & (lm != -np.inf)):
                raise ParameterDomainError("probability parameter reached 1")
            s = lm + lw
            out = np.where((lw > _LOG_TINY) & (lm < 700),
                           np.exp(lm) * np.log1p(-t),
                           np.where(s < 700, -np.exp(s) * (1.0 + t / 2.0),
                                    -np.inf))
        else:
            sp = np.where(lw < 30, np.log1p(np.exp(lw)), lw + np.exp(-lw))
            ls = lm + np.where(lw < _LOG_EPS, lw, np.log(sp))
            out = -np.where((lm < 700) & (lw > _LOG_DBL_MIN), np.exp(lm) * sp,
                            np.where(ls < 700, np.exp(ls), np.inf))
    return np.where(lm == -np.inf, 0.0, out)


def log_p_zero_array(spec: StructureSpec, n: int,
                     params: TiltedParams) -> np.ndarray:
    """[log P(Z_i = 0)]_{i<=n} under params (index 0 is 0), by log_p_zero.

    Kept in one slot of spec._table_cache keyed by (x, theta); a refill at
    least doubles the cached length, so callers that walk i upwards (z_law
    per index) pay for O(log n) fills.
    """
    key = (params.fx, params.ftheta)
    hit = spec._table_cache.get("log_p_zero")
    if hit is None or hit[0] != key or len(hit[1]) <= n:
        refill = hit is not None and hit[0] == key
        size = max(n, 2 * (len(hit[1]) - 1)) if refill else n
        lw = log_weight_array(spec, size, params)[1:]
        lf = (log_factorial_array(spec, size)[1:]
              if spec.kind is Kind.ASSEMBLY else 0.0)
        arr = np.zeros(size + 1)
        arr[1:] = log_p_zero(spec.kind, log_m_array(spec, size)[1:], lw, lf)
        hit = (key, arr)
        spec._table_cache["log_p_zero"] = hit
    return hit[1][: n + 1]


def mean_var_arrays(spec: StructureSpec, n: int,
                    params: TiltedParams) -> tuple[np.ndarray, np.ndarray]:
    """(E Z_i)_{i<=n} and (Var Z_i)_{i<=n} as arrays (index 0 is zero)."""
    params.validate(spec)
    lm = log_m_array(spec, n)
    lw = log_weight_array(spec, n, params)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is Kind.ASSEMBLY:
            lam = np.exp(lm + lw - log_factorial_array(spec, n))
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


# ---------------------------------------------------------------------------
# per-index laws
# ---------------------------------------------------------------------------

class Family(Enum):
    POISSON = "poisson"
    NEG_BINOMIAL = "negative_binomial"
    BINOMIAL = "binomial"


@dataclass(frozen=True)
class DiscreteLaw:
    """One nonnegative-integer law.

    Poisson(lam); NegBin(m, p) with p the geometric weight theta x^i (a
    geometric law is m = 1); Binomial(m, p) with p = theta x^i / (1 + theta
    x^i) (a Bernoulli law is m = 1).  lw = log(theta x^i) backs all
    log-space evaluation; m stays exact (int or Fraction).  log_p0 is
    log P(Z = 0): z_law reads it from the request's log_p_zero_array, and a
    law built without it takes it from log_p_zero (-lam for Poisson).
    """

    family: Family
    lam: float = 0.0
    m: Numeric = 0
    p: float = 0.0
    lw: float = -math.inf
    log_p0: Optional[float] = None

    def __post_init__(self):
        if self.log_p0 is not None:
            return
        if self.family is Family.POISSON:
            lp0 = -self.lam
        else:
            kind = (Kind.MULTISET if self.family is Family.NEG_BINOMIAL
                    else Kind.SELECTION)
            lp0 = float(log_p_zero(kind, log_big(self.m), self.lw))
        object.__setattr__(self, "log_p0", lp0)

    def pmf(self, k: int) -> float:
        """P(Z = k): entry k of pmf_array(k), 0 for k < 0."""
        return float(self.pmf_array(k)[k]) if k >= 0 else 0.0

    def pmf_array(self, k_max: int) -> np.ndarray:
        """[P(Z = 0), ..., P(Z = k_max)] in O(k_max) work, each entry the
        exp of log P(Z = 0) + log(lam^k / k!) for Poisson, of
        log m^(k) - log k! + log P(Z = 0) + k lw for the negative binomial
        (m^(k) the rising product) and of log m_(k) - log k! + k lw +
        log P(Z = 0) for the binomial (m_(k) the falling product), with
        log m taken once and the products accumulated over k."""
        ks = range(k_max + 1)
        c = self.log_p0
        if self.family is Family.POISSON:
            if self.lam == 0.0:
                return np.array([1.0] + [0.0] * k_max)
            ll = math.log(self.lam)
            logs = [c + k * ll - math.lgamma(k + 1) for k in ks]
        else:
            lm = log_big(self.m)
            if self.family is Family.NEG_BINOMIAL:
                lr = _log_rising_list(self.m, lm, k_max)
                logs = [lr[k] - math.lgamma(k + 1) + c + k * self.lw for k in ks]
            else:
                lf = _log_falling_list(self.m, lm, k_max)
                logs = [lf[k] - math.lgamma(k + 1) + k * self.lw + c for k in ks]
        return np.array([math.exp(v) for v in logs])


# Below m = 1e3 the rising factorial is lgamma(m + k) - lgamma(m); above it
# k log m + sum_{j<k} log1p(j/m).  The lgamma difference cancels, with an
# absolute error of about eps m log m (2e-5 at m = 1e10); the running sum
# adds k roundings of terms up to log1p(k/m), which matter at small m.
_LOG_RISING_SWITCH = math.log(1e3)


def _inv_m(m: Numeric, lm: float) -> float:
    """1/m, from the exact m where it is a double."""
    return 1.0 / float(m) if lm < 700 else math.exp(-lm)


def _log_rising_list(m: Numeric, lm: float, k_max: int) -> list:
    """[log m(m+1)...(m+k-1) for k = 0..k_max], big-m safe, with one
    running sum."""
    if lm == -math.inf:
        return [0.0] + [-math.inf] * k_max
    if lm < _LOG_RISING_SWITCH:
        fm = float(m)
        l0 = math.lgamma(fm)
        return [math.lgamma(fm + k) - l0 for k in range(k_max + 1)]
    step = _inv_m(m, lm)
    sums = itertools.accumulate(
        (math.log1p(j * step) for j in range(1, k_max)), initial=0.0)
    return [0.0] + [k * lm + s for k, s in zip(range(1, k_max + 1), sums)]


def _log_falling_list(m: Numeric, lm: float, k_max: int) -> list:
    """[log m(m-1)...(m-k+1) for k = 0..k_max], -inf once the product
    vanishes (k > m), with one running sum."""
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
    step = _inv_m(m, lm)
    sums = itertools.accumulate(
        (math.log1p(-j * step) for j in range(1, k_max)), initial=0.0)
    return [0.0] + [k * lm + s for k, s in zip(range(1, k_max + 1), sums)]


def z_law(spec: StructureSpec, i: int, params: TiltedParams) -> DiscreteLaw:
    """Law of Z_i under P_theta."""
    if i < 1:
        raise ParameterDomainError("index must be >= 1")
    params.validate(spec)
    lp0 = float(log_p_zero_array(spec, i, params)[i])
    if spec.kind is Kind.ASSEMBLY:
        if lp0 == -math.inf:
            raise NumericGuardError(
                f"Poisson mean of Z_{i} beyond double range; choose a smaller x")
        return DiscreteLaw(Family.POISSON, lam=-lp0, log_p0=lp0)
    lw = math.log(params.ftheta) + i * math.log(params.fx)
    mi = spec.m(i)
    if spec.kind is Kind.MULTISET:
        return DiscreteLaw(Family.NEG_BINOMIAL, m=mi, p=math.exp(lw), lw=lw,
                           log_p0=lp0)
    return DiscreteLaw(Family.BINOMIAL, m=mi, p=float(expit(lw)), lw=lw,
                       log_p0=lp0)


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
        return DiscreteLaw(Family.NEG_BINOMIAL, m=1, p=math.exp(lw), lw=lw)
    return DiscreteLaw(Family.BINOMIAL, m=1, p=float(expit(lw)), lw=lw)


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

    EXACT_MEAN solves E_theta T_n = n by a safeguarded Newton iteration
    inside a bracket found by doubling (residual <= 1e-9 n; see
    _solve_exact_mean).  The closed-form strategies return the
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


# The exact-mean solve returns the first x it evaluates (bracket ends
# included) whose Newton step in log x is at most _NEWTON_XTOL and whose
# residual |E T_n - n| is at most 1e-9 n.  A bisection to 1e-12 in x leaves
# a residual above 1e-9 n where Var T_n ~ n^2 (polynomials(2), n = 16000).
_NEWTON_XTOL = 1e-13
_MAX_EVALS = 200


def _solve_exact_mean(spec: StructureSpec, n: int, theta: Numeric) -> float:
    """x with E_theta T_n = n: a doubling bracket, then a safeguarded Newton
    iteration on log(E T_n / n) in w = log x, or for a multiset in
    w = log(x / (P - x)) with P = min(1, 1/theta) the pole of E T_n, where
    log E T_n is close to linear both at small x and near the pole.  The
    slope comes with the mean: d E T_n / d log x = Var T_n.  A Newton point
    outside the bracket, or a step longer than half the step before last,
    is replaced by a bisection of the bracket in w (rtsafe, Numerical
    Recipes 9.4)."""
    pole = math.inf
    to_w, to_x, dw_du = math.log, math.exp, lambda x: 1.0
    if spec.kind is Kind.MULTISET:
        pole = min(1.0, 1.0 / float(theta))
        to_w = lambda x: math.log(x / (pole - x))
        to_x = lambda w: pole * float(expit(w))
        dw_du = lambda x: pole / (pole - x)

    def at(x: float) -> tuple:
        sm = sum_moments(spec, n, TiltedParams(x=x, theta=theta))
        return x, sm.mean, sm.variance

    def step(pt: tuple) -> float:
        """The Newton step in w at pt; inf where E or Var is 0 or inf."""
        x, mean, var = pt
        if 0.0 < mean < math.inf and 0.0 < var < math.inf:
            return math.log(mean / n) * mean / var * dw_du(x)
        return math.inf

    def settled(pt: tuple) -> bool:
        _x, mean, var = pt
        res = abs(mean - n)
        return res <= 1e-9 * n and res <= _NEWTON_XTOL * var

    hi_cap = pole * (1.0 - 1e-12)
    lo = hi = at(min(1.0, hi_cap / 2) if math.isfinite(hi_cap) else 1.0)
    while lo[1] > n and not settled(lo):
        if lo[0] / 2.0 < 1e-300:
            raise ParameterDomainError("E T_n > n for every representable x")
        hi, lo = lo, at(lo[0] / 2.0)
    while hi[1] < n and not settled(hi):
        if hi[0] >= hi_cap:
            raise ParameterDomainError(
                f"sup_x E T_n = {hi[1]:.6g} < n = {n} at the supremum "
                f"x = {hi_cap:.17g}; no exact-mean solution for this multiset")
        lo, hi = hi, at(min(hi[0] * 2.0, hi_cap))
    pt = min((lo, hi), key=lambda p: abs(step(p)))
    d_old = d = to_w(hi[0]) - to_w(lo[0])
    for _ in range(_MAX_EVALS):
        if settled(pt):
            return pt[0]
        wlo, whi = to_w(lo[0]), to_w(hi[0])
        s = step(pt)
        w = to_w(pt[0]) - s
        if not wlo < w < whi or abs(2.0 * s) > abs(d_old):
            d_old, d = d, 0.5 * (whi - wlo)
            w = wlo + d
        else:
            d_old, d = d, s
        x = to_x(w)
        if not lo[0] < x < hi[0]:
            break  # the bracket has no double left inside it
        pt = at(x)
        if pt[1] < n:
            lo = pt
        else:
            hi = pt
    x, mean, _var = min((pt, lo, hi), key=lambda p: abs(p[1] - n))
    if abs(mean - n) > 1e-9 * n:
        raise NumericGuardError(
            f"exact-mean solve stalled: E T_n = {mean} at x = {x}")
    return x
