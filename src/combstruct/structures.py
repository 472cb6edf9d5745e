"""Structure specifications, builtin families, counting formulas, and total counts.

A decomposable structure family is described by its kind (assembly, multiset,
selection) and the sequence m_1, m_2, ... of available component structures
per size.  Everything else in the package derives from a StructureSpec:

  * N(n, a), the number of structures of weight n with component spectrum a
    (Cauchy-style product formulas, one per kind),
  * p_theta(n), the theta-biased total count, with an exact path (closed
    forms for the builtin assemblies and partition families at every theta
    and for the polynomial families at theta = 1, otherwise coefficient
    recurrences of the standard generating function identities, all on
    integers, each entry divided by its scale once at the end) and one
    floating-point table,
    sumdist._float_log_table, behind log_ptheta_table, p_total and
    uniform_pmf: by the identity C(n) = (Z_1..Z_n | T_n = n), x^k
    p_theta(k) [/k! for assemblies] is P(T_n = k) / P(T_n = 0), read off
    the full-set recursion (for a selection, where its certificate holds;
    otherwise off the convolution pmf of T_n); exact_route is the one rule
    choosing between them,
  * the uniform / theta-biased law over component spectra.

All counts are exact: integers, or rationals when m_i or theta are rational
(generalized assemblies such as the Ewens family have m_i = kappa*(i-1)!;
a float kappa enters as its exact binary rational).
The float routes read m_i only through the log of each kind's per-size
weight w_i: m_i / i! for an assembly (the EGF coefficient, Z_i ~
Poisson(theta w_i x^i)) and m_i for a multiset or selection.  Every
builtin and every from_m_list spec supplies it vectorised (log_m_fn), the
builtin assemblies in closed form, so they never build the exact integers
and no float route subtracts log i! from log m_i.
EXACT_CUTOFF is the largest n at which the exact tables are the default.
rising and falling are the exact rising and falling products that the
counting formulas, the moments and the Ewens pmf read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import NumericGuardError, ParameterDomainError, underflow_error

# sha256 from CPython's builtin module, the same digest: hashlib loads
# OpenSSL's libcrypto (about 3.3 MB resident and 4-5 ms of import), which no
# spec hash needs
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

BigCount = Union[int, Fraction]
Numeric = Union[int, float, Fraction]
LogMFn = Callable[[int], np.ndarray]
PthetaFn = Callable[[int, BigCount], Optional[list[BigCount]]]

# exact big-rational p_theta tables are the default for n <= EXACT_CUTOFF
EXACT_CUTOFF = 512


class Kind(Enum):
    ASSEMBLY = "assembly"
    MULTISET = "multiset"
    SELECTION = "selection"


# ---------------------------------------------------------------------------
# small exact-arithmetic helpers shared across modules
# ---------------------------------------------------------------------------

def as_integral(v: BigCount) -> BigCount:
    """Collapse a Fraction with denominator 1 to a plain int."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def log_big(v: Numeric) -> float:
    """log of a nonnegative int/Fraction/float; safe for huge integers."""
    if isinstance(v, Fraction):
        if v == 0:
            return -math.inf
        return math.log(v.numerator) - math.log(v.denominator)
    if v == 0:
        return -math.inf
    return math.log(v)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentVector:
    """A component-size spectrum a = (a_1, ..., a_n); a[k] counts size k+1
    and n = len(a)."""

    a: tuple[int, ...]

    def __post_init__(self):
        if not self.a:
            raise ParameterDomainError("weight n must be >= 1")
        if min(self.a) < 0:
            raise ParameterDomainError("component counts must be nonnegative")

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> list["ComponentVector"]:
        """One vector per row of a (count, n) integer array.  The checks of
        __post_init__ run once on the whole array, not once per vector; the
        vectors compare and hash as if built one by one."""
        if rows.ndim != 2 or rows.shape[1] < 1:
            raise ParameterDomainError("weight n must be >= 1")
        if rows.size and rows.min() < 0:
            raise ParameterDomainError("component counts must be nonnegative")
        new, put = object.__new__, object.__setattr__  # the class is frozen
        out = []
        for row in rows:  # row by row: no list of lists of the whole array
            v = new(cls)
            put(v, "a", tuple(row.tolist()))
            out.append(v)
        return out

    @property
    def weight(self) -> int:
        return sum((i + 1) * ai for i, ai in enumerate(self.a))

    @property
    def complete(self) -> bool:
        return self.weight == len(self.a)

    @property
    def num_components(self) -> int:
        return sum(self.a)


@dataclass(frozen=True)
class LogMeta:
    """Logarithmic-class parameters: m_i/i! ~ kappa*y^i/i (assemblies) or
    m_i ~ kappa*y^i/i (multisets, selections)."""

    kappa: Numeric
    y: float


@dataclass
class StructureSpec:
    """A structure family: kind, per-size structure counts m_i, and metadata.

    m_fn(i) must return an exact nonnegative int (or Fraction for
    generalized assemblies/multisets); values are memoized per spec.
    Selections require integer m_i because C(m_i, a_i) does.  A spec gives
    m_fn or m_list_fn: m_list_fn(n) returns [m_1, ..., m_n] at once, and
    m(i) and m_list fill the memo from it, m(i) to at least twice the
    largest index held, so m(1), ..., m(n) take O(log n) calls.
    log_m_fn(n), when given, returns the floats [log w_0, ..., log w_n] of
    the per-kind weight w_i = m_i / i! (assemblies) or m_i (multisets,
    selections), -inf at index 0 and where m_i = 0, without building m_i;
    without it the float routes take log_weights of the exact m_i.
    ptheta_fn(n, theta), set by every builtin, returns the exact
    [p_theta(0), ..., p_theta(n)] in closed form for a rational theta,
    without building m_i; a polynomial family returns None off theta = 1.
    Where it is absent or returns None, ptheta_table runs the
    coefficient recurrence on the m_i.
    """

    kind: Kind
    name: str
    m_fn: Optional[Callable[[int], BigCount]] = field(default=None,
                                                      repr=False)
    meta: Optional[LogMeta] = None
    log_m_fn: Optional[LogMFn] = field(default=None, repr=False)
    ptheta_fn: Optional[PthetaFn] = field(default=None, repr=False)
    m_list_fn: Optional[Callable[[int], list[BigCount]]] = field(
        default=None, repr=False)
    params: dict = field(default_factory=dict)
    _m_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _table_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _table_keys: dict = field(default_factory=dict, repr=False, compare=False)

    def table(self, name, build: Callable[[], object], key=None,
              n: Optional[int] = None):
        """The per-spec table in slot `name`.  A slot keeps one table, read
        while it was built for `key` and, with n given, while it holds
        entries 0..n; otherwise the stale table is dropped before build()
        runs, so a rebuild never holds two tables, and build()'s value is
        kept under `key`."""
        cache = self._table_cache
        if (name in cache and self._table_keys.get(name) == key
                and (n is None or len(cache[name]) > n)):
            return cache[name]
        cache.pop(name, None)
        self._table_keys.pop(name, None)
        value = cache[name] = build()
        self._table_keys[name] = key
        return value

    def m(self, i: int) -> BigCount:
        if i < 1:
            raise ParameterDomainError("component size index must be >= 1")
        cache = self._m_cache
        v = cache.get(i)
        if v is None:
            if self.m_list_fn is not None:
                self.m_list(max(i, 2 * len(cache)))
                return cache[i]
            v = cache[i] = self._checked_m(i, self.m_fn(i))
        return v

    def m_list(self, n: int) -> list[BigCount]:
        """[m_1, ..., m_n], memoized as m(i) is; with m_list_fn the memo
        holds m_1..m_k for some k, and one m_list_fn(n) call extends it."""
        cache = self._m_cache
        if self.m_list_fn is not None and len(cache) < n:
            k = len(cache)
            for i, v in enumerate(self.m_list_fn(n)[k:], start=k + 1):
                cache[i] = self._checked_m(i, v)
        return [self.m(i) for i in range(1, n + 1)]

    def _checked_m(self, i: int, v: BigCount) -> BigCount:
        v = as_integral(v)
        if v < 0:
            raise ParameterDomainError(f"m_{i} = {v} is negative")
        if self.kind is Kind.SELECTION and not isinstance(v, int):
            raise ParameterDomainError(
                "selections require integer m_i (binomial coefficient)")
        return v

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind.value}
        if "builtin" in self.params:
            d["builtin"] = self.params["builtin"]
            extra = {k: v for k, v in self.params.items() if k != "builtin"}
            if extra:
                d["params"] = {k: _param_out(v) for k, v in extra.items()}
        else:
            d["m"] = [_param_out(self.m(i)) for i in range(1, self.params["m_len"] + 1)]
        return d

    def spec_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return _sha256(blob.encode()).hexdigest()[:12]


def _param_out(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _param_in(v) -> Numeric:
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def _perm_m(i: int) -> int:
    return math.factorial(i - 1)


def _mapping_m(i: int) -> int:
    # (i-1)! * sum_{j<i} i^j/j!, an exact integer: e^i (i-1)! P(Po(i) < i).
    # Horner in i over c_j = (i-1)!/j!, with c_j = (j+1) c_{j+1}.
    acc = c = 1
    for j in range(i - 2, -1, -1):
        c *= j + 1
        acc = acc * i + c
    return acc


def _two_regular_m(i: int) -> int:
    return math.factorial(i - 1) // 2 if i >= 3 else 0


def _poly_m_list(q: int) -> Callable[[int], list[int]]:
    """[m_1, ..., m_n] of polynomials(q) from one divisor-sum sieve: unique
    factorisation gives q^k = sum_{d|k} d m_d, so c[k] starts at q^k and,
    once c[d] = d m_d is final, is taken from every multiple of d: O(n log
    n) subtractions.  The spec's m(i) and m_list read m_i from here
    alone."""
    def m_list(n: int) -> list[int]:
        c = list(accumulate([q] * n, mul, initial=1))
        for d in range(1, n // 2 + 1):
            c[2 * d::d] = map(sub, c[2 * d::d], repeat(c[d]))
        return [ck // k for k, ck in enumerate(c[1:], start=1)]
    return m_list


# vectorised float log weights: each returns [log w_0, ..., log w_n], -inf
# at 0, with w_i = m_i / i! for an assembly and w_i = m_i otherwise

_LOG_UNDERFLOW = 745.0  # exp(-x) is 0.0 in double precision beyond this


def log_weights(kind: Kind, ms: Sequence[Numeric]) -> np.ndarray:
    """[-inf, log w_1, ..., log w_k] from the exact m_1..m_k: log i! (from
    log_factorials) is subtracted here, once, for an assembly."""
    out = np.array([-np.inf] + [log_big(v) for v in ms])
    if kind is Kind.ASSEMBLY:
        out[1:] -= log_factorials(len(ms))[1:]
    return out


def _log_m_const(step: int = 1) -> LogMFn:
    """m_i = 1 for i = 1 (mod step) and m_i = 0 otherwise (not an assembly)."""
    def log_m(n: int) -> np.ndarray:
        out = np.full(n + 1, -np.inf)
        out[1::step] = 0.0
        return out
    return log_m


def _log_over_i(shift: float = 0.0, i_min: int = 1) -> LogMFn:
    """log(m_i / i!) = shift - log i for i >= i_min: the assemblies with m_i
    = e^shift (i-1)!."""
    def log_m(n: int) -> np.ndarray:
        out = np.full(n + 1, -np.inf)
        out[i_min:] = shift - np.log(np.arange(i_min, n + 1))
        return out
    return log_m


_log_perm_m = _log_over_i()  # one object, so that two specs compare equal
_log_two_regular_m = _log_over_i(-math.log(2), 3)


# log (i-1)! for i <= 32: the log of the exact factorial, within an ulp
_LOG_GAMMA_SMALL = np.array(
    [-np.inf] + [math.log(math.factorial(i - 1)) for i in range(1, 33)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# log 2 = _LN2_HI + _LN2_LO beyond double precision; _LN2_HI has 29 bits
_LN2_HI = float.fromhex("0x1.62e42ffp-1")
_LN2_LO = -4.2009150726810846e-11


def _log_gamma_int(i: np.ndarray) -> np.ndarray:
    """log Gamma(i) = log (i-1)! for integers i >= 1, elementwise, within
    2 ulps: the exact table up to 32, the Stirling series (x - 1/2)(log x -
    1) + log(2 pi)/2 + 1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7)
    above.  With x = m 2^e, m in [1/2, 1), log x is split as e _LN2_HI (so
    (x - 1/2) e _LN2_HI is exact below x = 2^17) plus e _LN2_LO + log m,
    so the rounding error of log x is not multiplied by x.  The sum is
    evaluated in place, in the order of the expression
    h (e _LN2_HI) + (h (e _LN2_LO + log m - 1) + (log(2 pi)/2 - 1/2) + r s),
    h = x - 1/2, r = 1/x and s the series in r^2, innermost term first."""
    i = np.asarray(i)
    h = i.astype(float)
    m, e = np.frexp(h)
    r = np.divide(1.0, h)
    r2 = r * r
    s = np.divide(r2, 1680)
    np.subtract(1 / 1260, s, out=s)
    np.multiply(r2, s, out=s)
    np.subtract(1 / 360, s, out=s)
    np.multiply(r2, s, out=s)
    np.subtract(1 / 12, s, out=s)
    np.multiply(r, s, out=s)
    np.subtract(h, 0.5, out=h)
    ef = e.astype(float)
    t = np.multiply(ef, _LN2_LO, out=r2)
    np.add(t, np.log(m, out=m), out=t)
    np.subtract(t, 1.0, out=t)
    np.multiply(h, t, out=t)
    np.add(t, _HALF_LOG_2PI - 0.5, out=t)
    np.add(t, s, out=t)
    np.multiply(ef, _LN2_HI, out=ef)
    np.multiply(h, ef, out=ef)
    out = np.add(ef, t, out=ef)
    small = i <= 32
    out[small] = _LOG_GAMMA_SMALL[i[small]]
    return out


def log_factorials(n: int) -> np.ndarray:
    """[log 0!, ..., log n!] by _log_gamma_int: the one float log k! of the
    package, so the log k! that one route adds is bitwise the one another
    subtracts."""
    return _log_gamma_int(np.arange(1, n + 2))


def _log_set_partition_m(n: int) -> np.ndarray:
    """log(m_i / i!) = -log i! for set partitions (m_i = 1)."""
    out = np.full(n + 1, -np.inf)
    out[1:] = -_log_gamma_int(np.arange(2, n + 2))
    return out


# Mappings: m_i / i! = (1/i) sum_{k<i} i^k / k!.  Below _MAPPING_CUT the
# terms are one cumprod, made once; from it on, Ramanujan's e^i/2 =
# sum_{k<i} i^k/k! + theta(i) i^i/i! and Stirling's i! = sqrt(2 pi i) i^i
# e^(s(i) - i), s(i) = 1/(12i) - 1/(360i^3) + 1/(1260i^5), give m_i / i! =
# (e^i / i) (1/2 - theta(i) e^-s(i) / sqrt(2 pi i)), theta(i) = 1/3 +
# 4/(135i) - 8/(2835i^2) - 16/(8505i^3) + 8992/(12629925i^4) +
# 334144/(492567075i^5).
_MAPPING_CUT = 200


def _mapping_log_m_small() -> np.ndarray:
    """[log(m_i / i!)]_{1 <= i < _MAPPING_CUT} for mappings (exactly 0 at
    i = 1)."""
    i = np.arange(1, _MAPPING_CUT, dtype=float)[:, None]
    k = np.arange(1, _MAPPING_CUT - 1)
    terms = np.cumprod(i / k, axis=1)  # i^k / k!
    return np.log1p(np.where(k < i, terms, 0.0).sum(axis=1)) - np.log(i[:, 0])


_MAPPING_LOG_M_SMALL = _mapping_log_m_small()


def _log_mapping_m(n: int) -> np.ndarray:
    out = np.full(n + 1, -np.inf)
    top = min(n, _MAPPING_CUT - 1)
    out[1:top + 1] = _MAPPING_LOG_M_SMALL[:top]
    x = np.arange(_MAPPING_CUT, n + 1, dtype=float)
    r = 1.0 / x
    r2 = r * r
    s = r * (1 / 12 - r2 * (1 / 360 - r2 / 1260))
    theta = 1 / 3 + r * (4 / 135 - r * (8 / 2835 + r * (16 / 8505 - r * (
        8992 / 12629925 + r * (334144 / 492567075)))))
    out[_MAPPING_CUT:] = x + (np.log(
        0.5 - theta * np.exp(-s) / np.sqrt(2.0 * np.pi * x)) - np.log(x))
    return out


def _ranges(top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, d) listing the pairs with d = 1..top[r] for each r in turn."""
    r = np.repeat(np.arange(len(top)), top)
    d = np.arange(1, len(r) + 1) - np.repeat(np.cumsum(top) - top, top)
    return r, d


def _mobius_sieve(n: int) -> np.ndarray:
    """mu[k] for k = 0..n (mu[0] = 0): (-1)^(number of prime factors) for
    squarefree k, 0 otherwise."""
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p::p] = False
    p = np.flatnonzero(prime)
    r, d = _ranges(n // p)
    mu = np.where(np.bincount(p[r] * d, minlength=n + 1) % 2, -1, 1)
    p2 = p[: np.searchsorted(p, math.isqrt(n), side="right")] ** 2
    r, d = _ranges(n // p2)
    mu[p2[r] * d] = 0
    mu[0] = 0
    return mu


def _log_poly_m(q: int) -> LogMFn:
    """log m_i = i log q - log i + log1p(sum_{d|i, d<i} mu(i/d) q^{d-i})."""
    lq = math.log(q)

    def log_m(n: int) -> np.ndarray:
        # the term of d | i = d k is mu(k) q^{-d(k-1)}; it underflows to 0
        # once d (k-1) log q exceeds _LOG_UNDERFLOW.  One bincount adds the
        # pairs (k, d) in the order k, then d, so each corr[i] sums its terms
        # in increasing k, from 0.
        k_top = min(n, int(_LOG_UNDERFLOW / lq) + 1)
        mu = _mobius_sieve(k_top)
        k = np.flatnonzero(mu[2:]) + 2
        r, d = _ranges(np.minimum(
            n // k, (_LOG_UNDERFLOW / ((k - 1) * lq)).astype(int)))
        corr = np.bincount(k[r] * d, minlength=n + 1,
                           weights=mu[k][r] * np.exp((-(k - 1) * lq)[r] * d))
        out = np.full(n + 1, -np.inf)
        i = np.arange(1, n + 1, dtype=float)
        out[1:] = i * lq - np.log(i) + np.log1p(corr[1:])
        return out
    return log_m


# exact p_theta tables of the builtin assemblies in closed form: p_theta(k) =
# k! [x^k] exp(theta C(x)).  Each runs on the integers P(k) = b^k p_theta(k)
# for theta = a/b (the rising factorial on its own argument's denominator)
# and ends in _unscale.

def _rising_ptheta(n: int, t: BigCount) -> list[BigCount]:
    """[t^(k)]_{k<=n}, the rising factorials t (t+1) ... (t+k-1): p_theta
    of permutations at t = theta and of the Ewens family, exp(theta kappa
    log 1/(1-x)) = (1-x)^(-theta kappa), at t = theta kappa."""
    c, d = t.numerator, t.denominator
    return _unscale(list(accumulate(range(c, c + n * d, d), mul, initial=1)), d)


def _mapping_ptheta(n: int, theta: BigCount) -> list[BigCount]:
    """exp(theta C) = (1-T)^(-theta) for the tree function T = x e^T, and
    Lagrange-Buermann inversion gives p_theta(k) = sum_i C(k, i)
    (theta-1)^(i) k^(k-i): P(k) = sum_i t_i with t_0 = (b k)^k and t_(i+1)
    = t_i f_i / d_i, f_i = (k-i) (a + (i-1) b) and d_i = (i+1) b k.  The sum
    runs from the inside out on integers, N <- d_i M + f_i N and M <- d_i M
    for i = k-1, ..., 0, without a division per term: then P(k) = N (b k)^k
    / M, and M = k! (b k)^k, so P(k) = N / k!, one exact division.  At
    theta = 1 the sum is the one term k^k."""
    a, b = theta.numerator, theta.denominator
    if a == b:
        return [k ** k for k in range(n + 1)]
    P, fact = [1], 1
    for k in range(1, n + 1):
        fact *= k
        bk = b * k
        N = M = 1
        for i in range(k - 1, -1, -1):
            M *= (i + 1) * bk
            N = M + (k - i) * (a + (i - 1) * b) * N
        P.append(_exact_div(N, fact, k))
    return _unscale(P, b)


def _set_partition_ptheta(n: int, theta: BigCount) -> list[BigCount]:
    """exp(theta (e^x - 1)), the Touchard polynomials, by the theta-Bell
    triangle: row k is row k-1 times b, summed from a times the last entry
    of row k-1, and its first entry is P(k)."""
    a, b = theta.numerator, theta.denominator
    row, P = [1], [1]
    for _ in range(n):
        row = list(accumulate(row if b == 1 else [b * v for v in row],
                              initial=a * row[-1]))
        P.append(row[0])
    return _unscale(P, b)


def _two_regular_ptheta(n: int, theta: BigCount) -> list[BigCount]:
    """C = (log 1/(1-x) - x - x^2/2)/2, so (1-x) e' = (theta/2) x^2 e for e
    = exp(theta C): p(k+1) = k p(k) + (theta/2) k (k-1) p(k-2)."""
    a, b = theta.numerator, theta.denominator
    P = [1, 0, 0][:n + 1]
    for k in range(2, n):
        P.append(b * k * P[k] + a * b * b * (k * (k - 1) // 2) * P[k - 2])
    return _unscale(P, b)


# exact p_theta tables of the builtin multisets and selections in closed form,
# on plain integers: the partition builtins at every rational theta = a/b,
# in which theta marks one part, and the polynomial families at theta = 1,
# through _at_theta_one

def _at_theta_one(table: Callable[[int], list[int]]) -> PthetaFn:
    """The ptheta_fn of a polynomial family: table(n) at theta = 1, None at
    every other theta (the divisor recurrence runs there)."""
    return lambda n, theta: table(n) if theta == 1 else None


def _partition_ptheta(n: int, theta: BigCount) -> list[BigCount]:
    """Integer partitions, theta marking each part, by the Durfee square:
    prod_k 1/(1 - theta z^k) = sum_K theta^K z^(K^2) / prod_{j<=K} (1 -
    z^j)(1 - theta z^j).  On P(k) = b^k p_theta(k), i.e. with z -> b z,
    the K-th term is a^K b^(K^2-K) z^(K^2) A_K(z), and A_K = A_(K-1) / (1 -
    b^K z^K)(1 - a b^(K-1) z^K) is one strided pass of two running sums,
    small times big integers, over the n - K^2 + 1 entries the term
    reaches."""
    a, b = theta.numerator, theta.denominator
    P = [1] + [0] * n
    A = [1] + [0] * n
    K = 1
    while K * K <= n:
        t = K * K
        del A[n - t + 1:]
        c1, c2 = b ** K, a * b ** (K - 1)
        for r in range(K):
            s1 = s2 = 0
            col = []
            for v in A[r::K]:
                s1 = c1 * s1 + v
                s2 = c2 * s2 + s1
                col.append(s2)
            A[r::K] = col
        P[t:] = map(add, P[t:], map(mul, A, repeat(a ** K * b ** (t - K))))
        K += 1
    return _unscale(P, b)


def _parts_sum(n: int, theta: BigCount, first: Callable[[int], int],
               step: int) -> list[BigCount]:
    """[z^k] sum_K theta^K z^first(K) / prod_{j<=K} (1 - z^(step j)), k <=
    n, for theta = a/b.  Q[m] counts the partitions of m into parts <= K,
    one strided running sum of additions per K, and the sum over K is
    Horner's rule in theta on the entries the K-th term reaches, T <- b T
    + a^K Q, so that T(k) = b^K(k) p_theta(k) with K(k) the number of
    terms reaching k: each entry has the small denominator b^K(k)."""
    a, b = theta.numerator, theta.denominator
    T = [1] + [0] * n
    Q = [1] + [0] * (n // step)
    K = 1
    while (t := first(K)) <= n:
        del Q[(n - t) // step + 1:]
        for r in range(K):
            Q[r::K] = accumulate(Q[r::K])
        if b != 1:
            T[t:] = map(mul, T[t:], repeat(b))
        w = a ** K
        T[t::step] = map(add, T[t::step],
                         Q if w == 1 else map(mul, Q, repeat(w)))
        K += 1
    if b == 1:
        return T
    K, terms = 1, []
    for k in range(n + 1):
        while first(K) <= k:
            K += 1
        terms.append(K - 1)
    return _unscale(T, b, terms)


def _distinct_partition_ptheta(n: int, theta: BigCount) -> list[BigCount]:
    """Partitions into distinct parts, theta marking each part, by Euler:
    prod_k (1 + theta z^k) = sum_K theta^K z^(K(K+1)/2) / prod_{j<=K} (1 -
    z^j)."""
    return _parts_sum(n, theta, lambda K: K * (K + 1) // 2, 1)


def _distinct_odd_partition_ptheta(n: int,
                                   theta: BigCount) -> list[BigCount]:
    """Partitions into distinct odd parts, theta marking each part: their
    K parts are the diagonal hooks of a self-conjugate partition with
    Durfee square K, so prod_(k odd) (1 + theta z^k) = sum_K theta^K
    z^(K^2) / prod_{j<=K} (1 - z^(2j))."""
    return _parts_sum(n, theta, lambda K: K * K, 2)


def _power_table(q: int) -> Callable[[int], list[int]]:
    """q^k: monic polynomials over F_q, and words of length k, which factor
    uniquely into necklaces (Chen-Fox-Lyndon)."""
    return lambda n: list(accumulate([q] * n, mul, initial=1))


def _squarefree_table(q: int) -> Callable[[int], list[int]]:
    """1, q, then q^k - q^(k-1): squarefree monic polynomials over F_q
    (Carlitz, 1932)."""
    power = _power_table(q)

    def table(n: int) -> list[int]:
        pw = power(n)
        return pw[:2] + [u - v for u, v in zip(pw[2:], pw[1:])]
    return table


def permutations() -> StructureSpec:
    return StructureSpec(Kind.ASSEMBLY, "permutations", _perm_m,
                         meta=LogMeta(1, 1.0), log_m_fn=_log_perm_m,
                         ptheta_fn=_rising_ptheta,
                         params={"builtin": "permutations"})


def mappings() -> StructureSpec:
    return StructureSpec(Kind.ASSEMBLY, "mappings", _mapping_m,
                         meta=LogMeta(Fraction(1, 2), math.e),
                         log_m_fn=_log_mapping_m, ptheta_fn=_mapping_ptheta,
                         params={"builtin": "mappings"})


def set_partitions() -> StructureSpec:
    return StructureSpec(Kind.ASSEMBLY, "set_partitions", lambda i: 1,
                         log_m_fn=_log_set_partition_m,
                         ptheta_fn=_set_partition_ptheta,
                         params={"builtin": "set_partitions"})


def two_regular_graphs() -> StructureSpec:
    return StructureSpec(Kind.ASSEMBLY, "two_regular_graphs", _two_regular_m,
                         meta=LogMeta(Fraction(1, 2), 1.0),
                         log_m_fn=_log_two_regular_m,
                         ptheta_fn=_two_regular_ptheta,
                         params={"builtin": "two_regular_graphs"})


def esf(kappa: Numeric) -> StructureSpec:
    """Ewens family: generalized assembly with m_i = kappa*(i-1)!."""
    kappa = _param_in(kappa) if isinstance(kappa, str) else kappa
    if kappa <= 0:
        raise ParameterDomainError("ESF parameter kappa must be positive")
    kap = Fraction(kappa)  # exact, also for a float kappa
    return StructureSpec(Kind.ASSEMBLY, f"esf({kappa})",
                         lambda i: kap * math.factorial(i - 1),
                         meta=LogMeta(kappa, 1.0),
                         log_m_fn=_log_over_i(log_big(kappa)),
                         ptheta_fn=lambda n, theta: _rising_ptheta(n, theta * kap),
                         params={"builtin": "esf", "kappa": kappa})


def integer_partitions() -> StructureSpec:
    return StructureSpec(Kind.MULTISET, "integer_partitions", lambda i: 1,
                         log_m_fn=_log_m_const(),
                         ptheta_fn=_partition_ptheta,
                         params={"builtin": "integer_partitions"})


def polynomials(q: int) -> StructureSpec:
    if q < 2:
        raise ParameterDomainError("polynomials builtin needs q >= 2")
    return StructureSpec(Kind.MULTISET, f"polynomials(q={q})",
                         meta=LogMeta(1, float(q)), log_m_fn=_log_poly_m(q),
                         ptheta_fn=_at_theta_one(_power_table(q)),
                         m_list_fn=_poly_m_list(q),
                         params={"builtin": "polynomials", "q": q})


def necklaces(q: int) -> StructureSpec:
    spec = polynomials(q)
    spec.name = f"necklaces(q={q})"
    spec.params = {"builtin": "necklaces", "q": q}
    return spec


def distinct_partitions() -> StructureSpec:
    return StructureSpec(Kind.SELECTION, "distinct_partitions", lambda i: 1,
                         log_m_fn=_log_m_const(),
                         ptheta_fn=_distinct_partition_ptheta,
                         params={"builtin": "distinct_partitions"})


def distinct_odd_partitions() -> StructureSpec:
    return StructureSpec(Kind.SELECTION, "distinct_odd_partitions",
                         lambda i: i % 2, log_m_fn=_log_m_const(2),
                         ptheta_fn=_distinct_odd_partition_ptheta,
                         params={"builtin": "distinct_odd_partitions"})


def squarefree_polynomials(q: int) -> StructureSpec:
    if q < 2:
        raise ParameterDomainError("squarefree_polynomials builtin needs q >= 2")
    return StructureSpec(Kind.SELECTION, f"squarefree_polynomials(q={q})",
                         meta=LogMeta(1, float(q)),
                         log_m_fn=_log_poly_m(q),
                         ptheta_fn=_at_theta_one(_squarefree_table(q)),
                         m_list_fn=_poly_m_list(q),
                         params={"builtin": "squarefree_polynomials", "q": q})


BUILTINS: dict[str, Callable[..., StructureSpec]] = {
    "permutations": permutations,
    "mappings": mappings,
    "set_partitions": set_partitions,
    "two_regular_graphs": two_regular_graphs,
    "esf": esf,
    "integer_partitions": integer_partitions,
    "polynomials": polynomials,
    "necklaces": necklaces,
    "distinct_partitions": distinct_partitions,
    "distinct_odd_partitions": distinct_odd_partitions,
    "squarefree_polynomials": squarefree_polynomials,
}


def _parse_kind(kind: Union[Kind, str]) -> Kind:
    if isinstance(kind, Kind):
        return kind
    try:
        return Kind(kind)
    except ValueError:
        valid = ", ".join(k.value for k in Kind)
        raise ParameterDomainError(
            f"unknown kind {kind!r}; valid kinds: {valid}") from None


def from_m_list(kind: Union[Kind, str], m_list: Sequence[Numeric],
                name: str = "custom") -> StructureSpec:
    """User-defined family from an explicit finite m list; m_i = 0 beyond it."""
    kind = _parse_kind(kind)
    ms = [as_integral(Fraction(v) if isinstance(v, str) else v) for v in m_list]

    lws = log_weights(kind, ms)

    def log_m(n: int) -> np.ndarray:
        out = np.full(n + 1, -np.inf)
        out[:min(n, len(ms)) + 1] = lws[:n + 1]
        return out

    spec = StructureSpec(kind, name,
                         lambda i: ms[i - 1] if i <= len(ms) else 0,
                         log_m_fn=log_m, params={"m_len": len(ms)})
    for i, v in enumerate(ms, start=1):
        spec.m(i)  # validate eagerly
    return spec


def spec_from_json_dict(d: dict) -> StructureSpec:
    """Build a spec from the CLI's JSON format.

    {"kind": ..., "builtin": <name>, "params": {...}} or {"kind": ..., "m": [...]}
    """
    if "builtin" in d:
        name = d["builtin"]
        factory = BUILTINS.get(name)
        if factory is None:
            raise ParameterDomainError(f"unknown builtin {name!r}")
        params = {k: _param_in(v) for k, v in d.get("params", {}).items()}
        spec = factory(**params)
        if "kind" in d and _parse_kind(d["kind"]) is not spec.kind:
            raise ParameterDomainError(
                f"builtin {name!r} has kind {spec.kind.value!r}, not {d['kind']!r}")
        return spec
    if "m" in d:
        if "kind" not in d:
            raise ParameterDomainError("explicit-m spec needs a 'kind' field")
        return from_m_list(d["kind"], d["m"])
    raise ParameterDomainError("spec JSON needs 'builtin' or 'm'")


def load_spec(path: str) -> StructureSpec:
    """The spec in a JSON file; a file that is not valid JSON, or whose
    fields have the wrong types, is a ParameterDomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            if not isinstance(doc, dict):
                raise TypeError("the top level is not an object")
            return spec_from_json_dict(doc)
        except (ValueError, TypeError, AttributeError) as exc:
            raise ParameterDomainError(f"malformed spec {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# counting formulas
# ---------------------------------------------------------------------------

def rising(m: Numeric, k: int) -> BigCount:
    """m (m+1) ... (m+k-1) exactly; a float m enters as its exact binary
    rational.  One integer product over the numerators, divided by the
    k-th power of the denominator once."""
    m = Fraction(m)
    a, b = m.numerator, m.denominator
    return as_integral(Fraction(math.prod(range(a, a + k * b, b)), b ** k))


def falling(m: Numeric, k: int) -> BigCount:
    """m (m-1) ... (m-k+1) exactly, as rising; 0 for an integer m < k."""
    m = Fraction(m)
    a, b = m.numerator, m.denominator
    return as_integral(Fraction(math.prod(range(a, a - k * b, -b)), b ** k))


def count_N(spec: StructureSpec, v: Union[ComponentVector, Sequence[int]],
            n: Optional[int] = None) -> BigCount:
    """Number of weight-n structures with component spectrum a (exact).

    Returns 0 unless sum i*a_i = n.  Assemblies use the generalized Cauchy
    product n! prod m_i^{a_i} / (i!^{a_i} a_i!); multisets prod C(m_i+a_i-1, a_i);
    selections prod C(m_i, a_i).
    """
    a = v.a if isinstance(v, ComponentVector) else tuple(v)
    n = len(a) if n is None or isinstance(v, ComponentVector) else n
    if any(ai < 0 for ai in a):
        raise ParameterDomainError("component counts must be nonnegative")
    if sum((i + 1) * ai for i, ai in enumerate(a)) != n:
        return 0
    if spec.kind is Kind.ASSEMBLY:
        total: BigCount = Fraction(math.factorial(n))
        for i, ai in enumerate(a, start=1):
            if ai:
                mi = spec.m(i)
                total *= Fraction(mi) ** ai
                total /= Fraction(math.factorial(i)) ** ai * math.factorial(ai)
        return as_integral(total)
    total = 1
    for i, ai in enumerate(a, start=1):
        if ai:
            mi = spec.m(i)
            if isinstance(mi, int):
                f = (math.comb(mi + ai - 1, ai) if spec.kind is Kind.MULTISET
                     else math.comb(mi, ai))
            else:  # a rational m_i of a generalized multiset
                f = Fraction(rising(mi, ai), math.factorial(ai))
            if f == 0:
                return 0
            total *= f
    return as_integral(total)


# ---------------------------------------------------------------------------
# exact p_theta(n) tables via generating-function coefficient recurrences
# ---------------------------------------------------------------------------

def ptheta_table(spec: StructureSpec, n: int, theta: Numeric = 1) -> list[BigCount]:
    """[p_theta(0), ..., p_theta(n)] exactly.

    The builtin assemblies have closed forms (spec.ptheta_fn), each on the
    integers b^k p_theta(k) for theta = a/b:
      * permutations: the rising factorial theta^(k);
      * Ewens family esf(kappa): (theta kappa)^(k), on the denominator of
        theta kappa (a float kappa enters as its exact binary rational);
      * 2-regular graphs: p(k+1) = k p(k) + (theta/2) k (k-1) p(k-2);
      * set partitions: the Touchard polynomials, by a theta-Bell triangle
        of additions;
      * mappings: sum_i C(k, i) (theta-1)^(i) k^(k-i), by Lagrange-Buermann
        inversion of (1-T)^(-theta), T the tree function; k^k at theta = 1.
    The partition builtins have closed forms at every theta, in which theta
    marks one part (Andrews, The Theory of Partitions, ch. 2), each a sum
    over K <= sqrt(2n) of strided running sums, small times big integers:
      * integer partitions: by the Durfee square, prod_k 1/(1 - theta z^k)
        = sum_K theta^K z^(K^2) / prod_{j<=K} (1 - z^j)(1 - theta z^j), on
        b^k p_theta(k), theta = 1 included;
      * distinct partitions: by Euler, prod_k (1 + theta z^k) = sum_K
        theta^K z^(K(K+1)/2) / prod_{j<=K} (1 - z^j);
      * distinct odd partitions: by the diagonal hooks of a self-conjugate
        partition, prod_(k odd) (1 + theta z^k) = sum_K theta^K z^(K^2) /
        prod_{j<=K} (1 - z^(2j));
    the last two by Horner's rule in theta over K, so entry k has the small
    denominator b^K(k), K(k) the number of terms reaching z^k.  The
    polynomial families have closed forms at theta = 1 only:
      * polynomials(q) and necklaces(q): q^k, by unique factorisation
        (Chen-Fox-Lyndon for necklaces);
      * squarefree polynomials(q): 1, q, then q^k - q^(k-1) (Carlitz, 1932).
    Every other spec and theta takes a coefficient recurrence:
      Assemblies:  p(n) = sum_j C(n-1, j-1) theta m_j p(n-j)  (exponential formula)
      Multisets:   n p(n) = sum_i [sum_{k|i} k m_k theta^{i/k}] p(n-i)
      Selections:  same with g(i) = -sum_{k|i} k m_k (-theta)^{i/k}
    The recurrences run on plain integers P(k) = D^k p(k), never on
    Fractions:
      * assemblies: D the lcm of the denominators of theta m_j, and P(n) =
        sum_j C(n-1, j-1) D^j theta m_j P(n-j), the binomials by Pascal's
        rule; this binomial form is also the check on the closed forms;
      * multisets and selections (_divisor_recurrence, also the check on
        their closed forms): D = b L^2, L the lcm of the denominators of
        m_j, so D = b for integer m_j, and n P(n) = sum_i D^i g(i)
        P(n-i), each active k adding its terms to its multiples i = j k.
        P(n) is an integer, so the division by n is exact: for m = u/v in
        lowest terms, the denominator of C(m+k-1, k) divides v^k prod_{p |
        v} p^{v_p(k!)}, which divides v^{2k}, and a weight-n term has at
        most n factors.  The polynomial families read m_1..m_n off one
        divisor-sum sieve, k m_k = q^k - sum_{d|k, d<k} d m_d
        (spec.m_list).
    Each entry is divided by its scale once, at the end, and a value with
    denominator 1 is returned as an int.  An exact division that leaves a
    remainder is a RuntimeError.

    theta must be a positive int or Fraction for exactness.  The table is
    kept in the spec's slot ("ptheta", theta) and read up to n.
    """
    if not isinstance(theta, (int, Fraction)):
        raise ParameterDomainError("exact p_theta table needs rational theta")
    if theta <= 0:
        raise ParameterDomainError(f"theta must be positive, got {theta}")
    theta = as_integral(Fraction(theta))
    return spec.table(("ptheta", theta), lambda: _ptheta_build(spec, n, theta),
                      n=n)[: n + 1]


def _ptheta_build(spec: StructureSpec, n: int, theta: BigCount) -> list[BigCount]:
    if spec.ptheta_fn is not None:
        table = spec.ptheta_fn(n, theta)
        if table is not None:
            return table
    if spec.kind is Kind.ASSEMBLY:
        return _assembly_binomial(spec, n, theta)
    return _divisor_recurrence(spec, n, theta)


def _divisor_recurrence(spec: StructureSpec, n: int,
                        theta: BigCount) -> list[BigCount]:
    """The multiset or selection table by the divisor recurrence (see
    ptheta_table), on the m_j of the spec, whatever its ptheta_fn."""
    a, b = theta.numerator, theta.denominator
    # m_j as ints where integral (a float m_j as its exact binary rational)
    ms = [0] + [mj if isinstance(mj, int) else as_integral(Fraction(mj))
                for mj in spec.m_list(n)]
    L = math.lcm(*(mj.denominator for mj in ms))
    D = b * L * L
    sign, ta = (1, a) if spec.kind is Kind.MULTISET else (-1, -a)
    Lm = [mj.numerator * (L // mj.denominator) for mj in ms]  # L m_j
    ta_pow = list(accumulate([ta] * n, mul, initial=1))  # ta^j, j <= n
    b_pow = list(accumulate([b] * n, mul, initial=1))
    # G(i) = D^i g(i) = sign L^{2i-1} sum_{k|i} k (L m_k) ta^{i/k} b^{i-i/k}
    s = [0] * (n + 1)
    for k in range(1, n + 1):
        if Lm[k]:
            c = k * Lm[k]
            s[k::k] = map(add, s[k::k], [c * ta_pow[j] * b_pow[j * k - j]
                                         for j in range(1, n // k + 1)])
    G = [0] + [sign * L ** (2 * i - 1) * s[i] for i in range(1, n + 1)]
    P = [1]
    for nn in range(1, n + 1):
        P.append(_exact_div(sum(map(mul, G[1:nn + 1], reversed(P))), nn, nn))
    return _unscale(P, D)


def _assembly_binomial(spec: StructureSpec, n: int,
                       theta: BigCount) -> list[BigCount]:
    """The assembly table in the binomial form (see ptheta_table), on the
    m_j of the spec, whatever its ptheta_fn."""
    tm = [theta * Fraction(mj) for mj in spec.m_list(n)]
    while tm and not tm[-1]:  # m_j = 0 beyond an explicit m list
        tm.pop()
    D = math.lcm(*(t.denominator for t in tm))
    w = [t.numerator * (D ** j // t.denominator) for j, t in enumerate(tm, start=1)]
    # C(nn-1, j-1) for j = 1..min(nn, len(w)), by Pascal's rule
    P, row = [1], [1]
    for nn in range(1, n + 1):
        P.append(sum(map(mul, map(mul, row, w), reversed(P))))
        row = [1] + [u + v for u, v in zip(row, row[1:] + [0])][:len(w) - 1]
    return _unscale(P, D)


def _exact_div(s: int, d: int, nn: int) -> int:
    """s / d for the p_theta(nn) step; a remainder is a RuntimeError."""
    q, rem = divmod(s, d)
    if rem:
        raise RuntimeError(
            f"p_theta({nn}) recurrence left remainder {rem} mod {d}")
    return q


# a Fraction from a numerator and denominator in lowest terms, without the
# gcd that Fraction(p, q) takes (Fraction._from_coprime_ints from Python
# 3.12 on, the _normalize flag before it)
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or (
    lambda p, q: Fraction(p, q, _normalize=False))


def _unscale(P: list[int], D: int,
             powers: Optional[Sequence[int]] = None) -> list[BigCount]:
    """[P(k) / D^e(k)], each as an int where its denominator is 1, with e(k)
    = powers[k] (nondecreasing, e(0) = 0 and e(k) >= 1 past it) or k by
    default: P itself when D = 1.
    Every prime of D^e is a prime of D, so a P(k) coprime to D is in lowest
    terms over D^e: one gcd with the small D instead of one with D^e (0.38
    of the 0.39 s of the esf(0.3) table at n = 512, theta = 2, where every
    P(k) is odd and D a power of 2).  The rest take Fraction's gcd with
    D^e: dividing out the factors that gcds with D find was 4-5 times
    slower on the m = (1/3, 2, 5/7) multiset table at theta = 2/3, whose
    P(k) share about 120 small factors with D^k."""
    if D == 1:
        return P
    p: list[BigCount] = P[:1]
    e, s = 0, 1
    for v, ek in zip(P[1:], range(1, len(P)) if powers is None
                     else powers[1:]):
        if ek > e:
            s *= D ** (ek - e)
            e = ek
        p.append(_coprime_fraction(v, s) if math.gcd(v, D) == 1
                 else as_integral(Fraction(v, s)))
    return p


def exact_route(n: int, theta: Numeric) -> bool:
    """Whether p_theta up to n is computed exactly: theta is an int or a
    Fraction and n <= EXACT_CUTOFF.  Every exact/float choice reads this
    rule."""
    return isinstance(theta, (int, Fraction)) and n <= EXACT_CUTOFF


def log_ptheta_table(spec: StructureSpec, n: int, theta: Numeric = 1,
                     x: Optional[Numeric] = None) -> list[float]:
    """[log p_theta(k)]_{k<=n} as floats: the logs of the exact table where
    exact_route holds, the float table sumdist._float_log_table otherwise,
    which raises the underflow NumericGuardError if any entry is
    unresolved."""
    if exact_route(n, theta):
        return [log_big(v) for v in ptheta_table(spec, n, theta)]
    out = sumdist._float_log_table(spec, n, theta, x)
    bad = np.flatnonzero(np.isnan(out))
    if bad.size:
        raise underflow_error(n, int(bad[0]))
    return out.tolist()


def p_total(spec: StructureSpec, n: int,
            theta: Numeric = 1) -> Union[BigCount, float]:
    """Total theta-biased count p_theta(n) = sum_k p(n,k) theta^k: an exact
    int/Fraction where exact_route holds, else entry n of the float table
    (sumdist._float_log_table) at the exact-mean x.  Exact entries past the
    cutoff come from ptheta_table."""
    if n < 0:
        raise ParameterDomainError("n must be >= 0")
    if n == 0:
        return 1
    if exact_route(n, theta):
        return ptheta_table(spec, n, theta)[n]
    try:
        return math.exp(sumdist._float_log_table(spec, n, theta)[n])
    except OverflowError:
        raise NumericGuardError(
            f"p_theta({n}) is beyond double range; log_ptheta_table gives "
            "its log") from None


# ---------------------------------------------------------------------------
# the combinatorial law
# ---------------------------------------------------------------------------

def uniform_pmf(spec: StructureSpec, v: Union[ComponentVector, Sequence[int]],
                theta: Numeric = 1, n: Optional[int] = None) -> Union[Fraction, float]:
    """P_theta(C(n) = a) = theta^{sum a} N(n, a) / p_theta(n); 0 if incomplete.

    Exact Fraction for rational theta (and rational m_i), float otherwise,
    as exp(log N + k log theta - log p_theta(n)): N may pass 1e308.
    """
    a = v.a if isinstance(v, ComponentVector) else tuple(v)
    n = len(a) if n is None or isinstance(v, ComponentVector) else n
    nn = count_N(spec, a, n)
    if nn == 0:
        return Fraction(0) if isinstance(theta, (int, Fraction)) else 0.0
    k = sum(a)
    if isinstance(theta, (int, Fraction)):
        return Fraction(theta) ** k * nn / ptheta_table(spec, n, theta)[n]
    return math.exp(log_big(nn) - sumdist._float_log_table(spec, n, theta)[n]
                    + k * math.log(theta))


from . import sumdist  # noqa: E402  (sumdist imports the names above)
