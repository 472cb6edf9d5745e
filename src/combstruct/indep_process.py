"""The independent process Z (and its refinement Y) under the tilted measure.

Z_i are independent with laws fixed by the structure kind, the free
parameter x > 0, and the component-count bias theta > 0:

    assembly   Z_i ~ Poisson(theta m_i x^i / i!)
    multiset   Z_i ~ NegativeBinomial(m_i, theta x^i)   (theta x^i < 1, m_i > 0)
    selection  Z_i ~ Binomial(m_i, theta x^i / (1 + theta x^i))

The refined variables Y_ij (j = 1..m_i) are Poisson(theta x^i / i!),
NegativeBinomial(1, theta x^i) (geometric) or Binomial(1, .) (Bernoulli),
and convolve back to Z_i.  C(n) = (Z_1, ..., Z_n | T_n = n) reads Z_1..Z_n
only, so a multiset's domain, tilt_pole(spec, theta, n), is set by its
active indices i <= n.

One kernel, z_pmf_rows, gives the rows [P(Z_i = k)]_{k <= K_i} of an array
of indices in one call, from the request's log weight (log m_i, or
log(m_i / i!) for an assembly: the family's float log_m_fn),
log P(Z_i = 0), log(theta x^i) and log k! arrays, each filled once per
request into one slot on the spec (StructureSpec.table).  log k! is
structures.log_factorials, the package's one log k!; the rising product
of an integer m_i < 1e3 reads two entries of the same array, so the log
k! a row subtracts cancels its own.  It builds the exact m_i only for a
small falling (m_i < e^34, cut at k <= m_i) or rising (m_i < 1e3)
product.  z_law returns a DiscreteLaw,
a view of one row of it, and refined_y_law is z_law on the family with
one structure, of size i.  log P(Z_i = 0) has one implementation,
log_p_zero, which sumdist.log_seed sums over a set.

Also here: means and variances, moments of the weighted sum T_n = sum i
Z_i, and solvers / closed-form prescriptions for choosing x so that E T_n
is close to n.  m_i may exceed double range: nothing forms float(m_i)
unless it is safe.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import NumericGuardError, ParameterDomainError
from .structures import (Kind, Numeric, StructureSpec, from_m_list,
                         log_factorials, log_weights)

_LOG_TINY = math.log(1e-8)
_LOG_EPS = math.log(2.0 ** -53)  # log1p(t) = t to double precision below it
_LOG_DBL_MIN = math.log(2.0 ** -1022)  # e^lw is subnormal below it
_LOG_DBL_MAX = math.log(sys.float_info.max)  # e^w overflows above it
# _log_products takes the exact rising (falling) logs below m = e^cut
_RISING_CUT = math.log(1e3)
_FALLING_CUT = 34.0


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

    def validate(self, spec: StructureSpec, n: int) -> "TiltedParams":
        """self, where Z_1..Z_n are defined: x below tilt_pole(spec, theta,
        n), n the largest index the caller reads."""
        pole = tilt_pole(spec, self.theta, n)
        if not self.x < pole:
            raise ParameterDomainError(
                f"multiset tilt needs theta x^i < 1 at every i <= {n} with "
                f"m_i > 0, that is x < {pole!r}, got x={float(self.x)}")
        return self

    @property
    def fx(self) -> float:
        return float(self.x)

    @property
    def ftheta(self) -> float:
        return float(self.theta)


def tilt_pole(spec: StructureSpec, theta: Numeric, n: int) -> float:
    """The supremum of the x at which Z_1..Z_n are defined: inf but for a
    multiset, whose NegBin(m_i, theta x^i) needs theta x^i < 1 at every
    active index i <= n (m_i > 0 in log_m_array), so x < theta^(-1/i).
    The first active index binds at theta > 1, the last at theta < 1 (any
    at theta = 1); every x is allowed with none.  The array is scanned
    only where index 1 (theta >= 1) or n (theta < 1) is inactive, never
    in a builtin.  P(Z_i = 0) = 1 at an inactive index."""
    if spec.kind is not Kind.MULTISET or n < 1:
        return math.inf
    th = float(theta)
    lm = log_m_array(spec, n)
    i = 1 if th >= 1 else n
    if lm[i] == -math.inf:
        act = np.flatnonzero(lm != -math.inf)  # lm[0] = -inf
        if not act.size:
            return math.inf
        i = int(act[0] if th >= 1 else act[-1])
    return 1.0 / th ** (1.0 / i)


# ---------------------------------------------------------------------------
# cached per-spec arrays
# ---------------------------------------------------------------------------

def log_m_array(spec: StructureSpec, n: int) -> np.ndarray:
    """array L with L[i] = log w_i for i = 0..n (L[0] = -inf; -inf where
    m_i = 0), w_i the per-kind weight: m_i / i! for an assembly (its Poisson
    mean lambda_i is theta w_i x^i), m_i for a multiset or selection.

    Filled by spec.log_m_fn, or by structures.log_weights from the exact m_i
    for specs without one, to exactly n in the spec's "log_m" slot
    (StructureSpec.table).
    """
    return spec.table("log_m", lambda: (
        spec.log_m_fn(n) if spec.log_m_fn is not None else log_weights(
            spec.kind, [spec.m(i) for i in range(1, n + 1)])), n=n)[: n + 1]


def expit(w: np.ndarray) -> np.ndarray:
    """The logistic 1/(1 + e^-w), elementwise; e^w where e^-w overflows
    (1 + e^w is then 1 to double precision)."""
    with np.errstate(over="ignore"):
        d = 1.0 + np.exp(-w)
        return np.where(d == np.inf, np.exp(w), 1.0 / d)


def log_expit(w: np.ndarray) -> np.ndarray:
    """log of the logistic, -log(1 + e^-w), elementwise."""
    return -np.logaddexp(0.0, -w)


def expit_float(w: float) -> float:
    """expit of one float, by the same formula in math."""
    return 1.0 / (1.0 + math.exp(-w)) if -w <= _LOG_DBL_MAX else math.exp(w)


def log_weight_array(n: int, params: TiltedParams) -> np.ndarray:
    """w[i] = log(theta x^i), i = 0..n."""
    i = np.arange(n + 1, dtype=float)
    return math.log(params.ftheta) + i * math.log(params.fx)


def log_factorial_array(spec: StructureSpec, n: int) -> np.ndarray:
    """[log 0!, ..., log n!] from structures.log_factorials (within 2 ulps
    of log Gamma), filled to exactly n in the spec's "log_factorial"
    slot."""
    return spec.table("log_factorial", lambda: log_factorials(n),
                      n=n)[: n + 1]


def log_p_zero(kind: Kind, lm, lw) -> np.ndarray:
    """log P(Z_i = 0), elementwise, from the log weight lm (log_m_array:
    log(m_i / i!) for an assembly, log m_i otherwise) and lw = log(theta
    x^i); m_i may be far beyond double range.

    assembly   -lambda_i = -e^(lm + lw); -inf where lambda_i is beyond
               double range, which the callers that need lambda_i report as
               an overflow.
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
            return -np.exp(lm + lw)
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
    """[log P(Z_i = 0)]_{i<=n} under params (index 0 is 0), by log_p_zero,
    filled to exactly n in the spec's "log_p_zero" slot keyed by (x, theta).
    """
    return spec.table("log_p_zero", lambda: np.append(0.0, log_p_zero(
        spec.kind, log_m_array(spec, n)[1:], log_weight_array(n, params)[1:])),
        key=(params.fx, params.ftheta), n=n)[: n + 1]


def mean_var_arrays(spec: StructureSpec, n: int,
                    params: TiltedParams) -> tuple[np.ndarray, np.ndarray]:
    """(E Z_i)_{i<=n} and (Var Z_i)_{i<=n} as arrays (index 0 is zero)."""
    params.validate(spec, n)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = _mean_var(spec.kind, log_m_array(spec, n),
                              log_weight_array(n, params))
    mean = np.where(np.isfinite(mean), mean, np.inf)
    var = np.where(np.isfinite(var), var, np.inf)
    return mean, var


def _mean_var(kind: Kind, lm: np.ndarray,
              lw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E Z_i, Var Z_i) from log_m_array's lm and lw = log(theta x^i),
    with index 0 set to 0; an entry beyond double range is inf or nan."""
    if kind is Kind.SELECTION:
        # logistic-stable: p* = sigma(lw), E = m p*, Var = m p* (1 - p*)
        sig = expit(lw)
        mean = np.exp(lm + log_expit(lw))
        var = mean * (1.0 - sig)
    else:
        mean = var = np.exp(lm + lw)  # lambda_i, or m_i theta x^i
        if kind is Kind.MULTISET:  # m_i t / (1 - t) and / (1 - t)^2
            u = np.exp(lw)
            np.subtract(1.0, u, out=u)
            # t >= 1 only where m_i = 0 (TiltedParams.validate), whose
            # mean and variance are 0
            u[u <= 0.0] = 1.0
            var = np.square(u)
            np.divide(mean, var, out=var)
            mean /= u
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

@dataclass(frozen=True)
class DiscreteLaw:
    """The law of Z_i under params, as a view of row i of z_pmf_rows:
    Poisson(lam) for an assembly, NegBin(m_i, theta x^i) for a multiset,
    Binomial(m_i, theta x^i / (1 + theta x^i)) for a selection.  log_p0 =
    log P(Z_i = 0) and lam = -log_p0 (the Poisson mean of an assembly) are
    read from the request's log_p_zero_array."""

    spec: StructureSpec
    i: int
    params: TiltedParams

    @property
    def log_p0(self) -> float:
        return float(log_p_zero_array(self.spec, self.i, self.params)[self.i])

    @property
    def lam(self) -> float:
        return -self.log_p0

    def pmf(self, k: int) -> float:
        """P(Z_i = k): entry k of pmf_array(k), 0 for k < 0."""
        return float(self.pmf_array(k)[k]) if k >= 0 else 0.0

    def pmf_array(self, k_max: int) -> np.ndarray:
        """[P(Z_i = 0), ..., P(Z_i = k_max)]: z_pmf_rows' one row."""
        return z_pmf_rows(self.spec, [self.i], k_max, self.params)[0]


def z_law(spec: StructureSpec, i: int, params: TiltedParams) -> DiscreteLaw:
    """Law of Z_i under P_theta, a view of row i of z_pmf_rows, whose
    checks (i >= 1, params in the domain, a finite Poisson mean) it runs on
    the one-entry row [P(Z_i = 0)]."""
    z_pmf_rows(spec, [i], 0, params)
    return DiscreteLaw(spec, i, params)


def z_pmf_rows(spec: StructureSpec, idx, k_max, params: TiltedParams) -> list:
    """rows[r] = [P(Z_i = k)]_{k <= k_max[r]} for i = idx[r] >= 1 (k_max an
    int or one per index), from the request's arrays of c = log P(Z_i = 0),
    log weights (log_m_array), lw = log(theta x^i) and log k!.  Entry
    k > 0 is the exp of c + k log lam - log k! (assembly: Poisson, lam =
    -c), log m^(k) - log k! + c + k lw (multiset) or log m_(k) - log k! +
    k lw + c (selection), with _log_products, added in that order.  A
    binomial row is exactly 0 past m_i; an index with m_i = 0 has e_0.
    Rows with k_max + 1 in one [2^b, 2^(b+1)) form one 2-D block, which
    each row reads up to its k_max."""
    idx = np.asarray(idx, dtype=np.int64)
    if np.any(idx < 1):
        raise ParameterDomainError("index must be >= 1")
    top = int(idx.max(initial=0))
    params.validate(spec, top)
    lp0 = log_p_zero_array(spec, top, params)[idx]
    if spec.kind is Kind.ASSEMBLY and np.any(lp0 == -np.inf):
        raise NumericGuardError(f"Poisson mean of Z_{idx[np.argmin(lp0)]} "
                                "beyond double range; choose a smaller x")
    k_max = np.broadcast_to(k_max, idx.shape)
    lw = log_weight_array(top, params)[idx]
    lm = log_m_array(spec, top)[idx]
    rows = {}
    order = np.argsort(k_max, kind="stable")
    level = np.frexp(k_max[order] + 1.0)[1]  # K_r + 1 within a factor 2
    groups = list(filter(len, np.split(order,
                                       np.flatnonzero(np.diff(level)) + 1)))
    if groups:  # one log k! fill, as far as any block reads
        log_factorial_array(spec, _log_factorial_reach(spec.kind, k_max, lm))
    for grp in groups:
        K = int(k_max[grp[-1]])
        c = lp0[grp, None]
        prod = None if spec.kind is Kind.ASSEMBLY else _log_products(
            spec, K, idx[grp], lm[grp])
        W = K if prod is None else prod.shape[1]  # entries past W are 0
        k = np.arange(1, W + 1)
        lf = log_factorial_array(spec, W)[1:W + 1]
        if prod is None:
            with np.errstate(divide="ignore"):  # lam = 0: the row is e_0
                logs = c + k * np.log(-c) - lf
        else:
            kw = k * lw[grp, None]
            logs = (prod - lf + c + kw if spec.kind is Kind.MULTISET
                    else prod - lf + kw + c)
        block = np.zeros((len(grp), K + 1))
        block[:, :W + 1] = np.exp(np.hstack((c, logs)))
        rows.update((r, row[:kr + 1]) for r, row, kr
                    in zip(grp.tolist(), block, k_max[grp].tolist()))
    return [rows[r] for r in range(len(idx))]


def _log_factorial_reach(kind: Kind, k_max: np.ndarray, lm: np.ndarray) -> int:
    """The last k whose log k! z_pmf_rows reads for these rows: the largest
    K; for a multiset plus m - 1, m the largest m_i below e^_RISING_CUT
    (_log_products reads log (m + K - 1)! at an integer m, so this may
    pass the last k read by up to 998); for a selection whose m_i are all
    below e^_FALLING_CUT at most the largest m_i, past which its rows are
    0.  e^lm rounds to an integer m_i that small."""
    reach = int(k_max.max())
    live = lm[lm != -np.inf]
    if kind is Kind.MULTISET:
        small = live[live < _RISING_CUT]
        if small.size:
            reach += max(0, round(math.exp(float(small.max()))) - 1)
    elif kind is Kind.SELECTION:
        top = float(live.max(initial=-np.inf))
        if top < _FALLING_CUT:
            reach = min(reach, round(math.exp(top)))
    return reach


def _log_products(spec: StructureSpec, K: int, idx: np.ndarray,
                  lm: np.ndarray) -> np.ndarray:
    """out[r, k-1], k = 1..W: log m(m+1)...(m+k-1) (multiset: negative
    binomial) or log m(m-1)...(m-k+1) (selection: binomial) for m = m_i,
    i = idx[r], log m = lm[r]; -inf where m = 0 or k > m.  W is K, or the
    binomial's largest ceil(m) where that is less.  Below m = 1e3 the
    rising one is log Gamma(m + k) - log Gamma(m), which above it cancels
    (absolute error about eps m log m): at an integer m both terms are
    entries of log_factorial_array, whose log k! z_pmf_rows subtracts, so
    the row of m = 1 is exactly geometric; math.lgamma serves any other
    m.  The falling one below m = e^34 sums log(m - j).  Both read the
    exact m_i.  Otherwise it is k log m + sum_{j<k} log1p(+-j/m) with 1/m
    = e^-lm.  Every sum runs along one row."""
    live = lm != -np.inf
    nb = spec.kind is Kind.MULTISET
    cut, sign = (_RISING_CUT, 1.0) if nb else (_FALLING_CUT, -1.0)
    small, big = np.flatnonzero(live & (lm < cut)), np.flatnonzero(lm >= cut)
    fm = np.array([float(spec.m(i)) for i in idx[small].tolist()]).reshape(-1, 1)
    if not nb and not big.size:
        K = min(K, math.ceil(fm.max(initial=0)))
    out = np.full((len(lm), K), -np.inf)
    j = np.arange(K)
    if not nb:
        d = np.where(fm > j, fm - j, 0.0)
        with np.errstate(divide="ignore"):
            out[small] = np.cumsum(np.log(d), axis=1)
    else:
        whole = fm[:, 0] % 1 == 0
        if whole.any():  # log (m + k - 1)! - log (m - 1)!, k = 1..K
            mi = fm[whole].astype(np.int64)
            lf = log_factorial_array(spec, int(mi.max()) + K - 1)
            out[small[whole]] = lf[mi + j] - lf[mi - 1]
        for r, f in zip(small[~whole].tolist(), fm[~whole, 0].tolist()):
            l0 = math.lgamma(f)
            out[r] = [math.lgamma(f + k) - l0 for k in range(1, K + 1)]
    if big.size:  # the j = 0 term log1p(0) is 0
        lb = lm[big, None]
        sums = np.cumsum(np.log1p(j * np.exp(-lb) * sign), axis=1)
        out[big] = (j + 1) * lb + sums
    return out


def refined_y_law(spec: StructureSpec, i: int, params: TiltedParams) -> DiscreteLaw:
    """Law of one refined coordinate Y_ij: Z_i of the family of the same
    kind with one structure, of size i (Poisson(theta x^i / i!), geometric
    or Bernoulli).  The m_i-fold convolution of it is z_law(spec, i)."""
    return z_law(from_m_list(spec.kind, [0] * (i - 1) + [1]), i, params)


# ---------------------------------------------------------------------------
# moments of T_n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SumMoments:
    mean: float
    variance: float


def sum_moments(spec: StructureSpec, n: int, params: TiltedParams,
                grid: Optional[tuple] = None) -> SumMoments:
    """E T_n = sum i E Z_i and Var T_n = sum i^2 Var Z_i as exact finite sums.

    grid is _moment_grid(n) where the caller evaluates many x (the
    exact-mean solve).  A sum beyond double range is inf (choose_x's
    bracket doubling asks for such x on purpose): an entry that is not
    finite makes its sum inf or nan, which reads inf.  The sums are
    numpy's own pairwise reductions, not np.dot: OpenBLAS splits a long
    dot across its threads, so its rounding would depend on the thread
    count.
    """
    params.validate(spec, n)
    i, ii = _moment_grid(n) if grid is None else grid
    lw = math.log(params.ftheta) + i * math.log(params.fx)  # log_weight_array
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = _mean_var(spec.kind, log_m_array(spec, n), lw)
        et, vt = float((i * mean).sum()), float((ii * var).sum())
    return SumMoments(mean=et if math.isfinite(et) else math.inf,
                      variance=vt if math.isfinite(vt) else math.inf)


def _moment_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, i^2) as floats, i = 0..n: the weights of sum_moments' sums."""
    i = np.arange(n + 1, dtype=float)
    return i, i * i


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
    w = log(x / (P - x)) with P = tilt_pole(spec, theta, n) the pole of
    E T_n, where log E T_n is close to linear both at small x and near the
    pole (a multiset with no active index i <= n has none).  The
    slope comes with the mean: d E T_n / d log x = Var T_n.  A Newton point
    outside the bracket, or a step longer than half the step before last,
    is replaced by a bisection of the bracket in w (rtsafe, Numerical
    Recipes 9.4).  theta must be positive, as TiltedParams asks, before
    the pole is formed."""
    if not theta > 0:
        raise ParameterDomainError("x and theta must be positive")
    pole = tilt_pole(spec, theta, n)
    to_w, to_x, dw_du = math.log, math.exp, lambda x: 1.0
    if pole < math.inf:
        to_w = lambda x: math.log(x / (pole - x))
        to_x = lambda w: pole * expit_float(w)
        dw_du = lambda x: pole / (pole - x)

    grid = _moment_grid(n)

    def at(x: float) -> tuple:
        sm = sum_moments(spec, n, TiltedParams(x=x, theta=theta), grid)
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
        if hi[0] * 2.0 == math.inf:
            # a selection, whose E T_n rises to sum_i i m_i < n as x grows:
            # its components cannot reach weight n
            raise ParameterDomainError(f"no structures of weight {n}")
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
