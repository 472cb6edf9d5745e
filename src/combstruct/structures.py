"""Structure specifications, builtin families, counting formulas, and total counts.

A decomposable structure family is described by its kind (assembly, multiset,
selection) and the sequence m_1, m_2, ... of available component structures
per size.  Everything else in the package derives from a StructureSpec:

  * N(n, a), the number of structures of weight n with component spectrum a
    (Cauchy-style product formulas, one per kind),
  * p_theta(n), the theta-biased total count, with an exact path
    (coefficient recurrences of the standard generating function identities,
    run on integers s_k p_theta(k) scaled by a power of a common denominator
    and divided by s_k once per entry at the end) and one floating-point
    table, _float_log_table, behind log_ptheta_table and p_total: by the
    identity C(n) = (Z_1..Z_n | T_n = n), x^k p_theta(k) [/k! for
    assemblies] is P(T_n = k) / P(T_n = 0), read off the full-set
    recursion (for a selection, where its certificate holds; otherwise off
    the convolution pmf of T_n); exact_route is the one rule choosing
    between them,
  * the uniform / theta-biased law over component spectra.

All counts are exact: integers, or rationals when m_i or theta are rational
(generalized assemblies such as the Ewens family have m_i = kappa*(i-1)!;
a float kappa enters as its exact binary rational).
The float routes read m_i only through log m_i; every builtin and every
from_m_list spec supplies a vectorised float log m_i (log_m_fn), so they
never build the exact integers.
EXACT_CUTOFF is the largest n at which the exact tables are the default.
rising and falling are the exact rising and falling products that the
counting formulas, the moments and the Ewens pmf read.
"""

from __future__ import annotations

import json
import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import gammaincc, gammaln

from .errors import NumericGuardError, ParameterDomainError

BigCount = Union[int, Fraction]
Numeric = Union[int, float, Fraction]
LogMFn = Callable[[int], np.ndarray]

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


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_sieve(n_max: int) -> list[list[int]]:
    """divs[i] = sorted divisors of i, for i = 0..n_max, in O(n log n)."""
    divs: list[list[int]] = [[] for _ in range(n_max + 1)]
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            divs[m].append(d)
    return divs


def mobius(n: int) -> int:
    if n < 1:
        raise ParameterDomainError("mobius() needs n >= 1")
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentVector:
    """A component-size spectrum a = (a_1, ..., a_n); a[k] counts size k+1."""

    n: int
    a: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ParameterDomainError("weight n must be >= 1")
        if len(self.a) != self.n:
            raise ParameterDomainError("component vector must have length n")
        if self.a and min(self.a) < 0:
            raise ParameterDomainError("component counts must be nonnegative")

    @property
    def weight(self) -> int:
        return sum((i + 1) * ai for i, ai in enumerate(self.a))

    @property
    def complete(self) -> bool:
        return self.weight == self.n

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

    m_fn must return an exact nonnegative int (or Fraction for generalized
    assemblies/multisets); values are memoized per spec.  Selections require
    integer m_i because C(m_i, a_i) does.  log_m_fn(n), when given, returns
    the floats [log m_0, ..., log m_n] (-inf at index 0 and where m_i = 0)
    without building m_i; without it the float routes take log_big(m(i)).
    """

    kind: Kind
    name: str
    m_fn: Callable[[int], BigCount] = field(repr=False)
    meta: Optional[LogMeta] = None
    log_m_fn: Optional[LogMFn] = field(default=None, repr=False)
    params: dict = field(default_factory=dict)
    _m_cache: dict = field(default_factory=dict, repr=False)
    _table_cache: dict = field(default_factory=dict, repr=False)

    def m(self, i: int) -> BigCount:
        if i < 1:
            raise ParameterDomainError("component size index must be >= 1")
        v = self._m_cache.get(i)
        if v is None:
            v = as_integral(self.m_fn(i))
            if v < 0:
                raise ParameterDomainError(f"m_{i} = {v} is negative")
            if self.kind is Kind.SELECTION and not isinstance(v, int):
                raise ParameterDomainError(
                    "selections require integer m_i (binomial coefficient)")
            self._m_cache[i] = v
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
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


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


def _poly_m(q: int) -> Callable[[int], int]:
    def m(i: int) -> int:
        total = sum(mobius(i // k) * q**k for k in divisors(i))
        assert total % i == 0
        return total // i
    return m


# vectorised float log m_i: each returns [log m_0, ..., log m_n], -inf at 0

_LOG_UNDERFLOW = 745.0  # exp(-x) is 0.0 in double precision beyond this


def _log_m_const(step: int = 1) -> LogMFn:
    """m_i = 1 for i = 1 (mod step) and m_i = 0 otherwise."""
    def log_m(n: int) -> np.ndarray:
        out = np.full(n + 1, -np.inf)
        out[1::step] = 0.0
        return out
    return log_m


def _log_factorials(n: int, shift: float = 0.0, i_min: int = 1) -> np.ndarray:
    """log((i-1)!) + shift for i >= i_min."""
    out = np.full(n + 1, -np.inf)
    out[i_min:] = gammaln(np.arange(i_min, n + 1, dtype=float)) + shift
    return out


def _log_mapping_m(n: int) -> np.ndarray:
    # m_i = (i-1)! e^i Q(i, i) with Q the regularized upper incomplete gamma
    out = np.full(n + 1, -np.inf)
    i = np.arange(1, n + 1, dtype=float)
    out[1:] = gammaln(i) + i + np.log(gammaincc(i, i))
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


def permutations() -> StructureSpec:
    return StructureSpec(Kind.ASSEMBLY, "permutations", _perm_m,
                         meta=LogMeta(1, 1.0), log_m_fn=_log_factorials,
                         params={"builtin": "permutations"})


def mappings() -> StructureSpec:
    return StructureSpec(Kind.ASSEMBLY, "mappings", _mapping_m,
                         meta=LogMeta(Fraction(1, 2), math.e),
                         log_m_fn=_log_mapping_m,
                         params={"builtin": "mappings"})


def set_partitions() -> StructureSpec:
    return StructureSpec(Kind.ASSEMBLY, "set_partitions", lambda i: 1,
                         log_m_fn=_log_m_const(),
                         params={"builtin": "set_partitions"})


def two_regular_graphs() -> StructureSpec:
    return StructureSpec(Kind.ASSEMBLY, "two_regular_graphs", _two_regular_m,
                         meta=LogMeta(Fraction(1, 2), 1.0),
                         log_m_fn=lambda n: _log_factorials(n, -math.log(2), 3),
                         params={"builtin": "two_regular_graphs"})


def esf(kappa: Numeric) -> StructureSpec:
    """Ewens family: generalized assembly with m_i = kappa*(i-1)!."""
    kappa = _param_in(kappa) if isinstance(kappa, str) else kappa
    if kappa <= 0:
        raise ParameterDomainError("ESF parameter kappa must be positive")
    kap = Fraction(kappa)  # exact, also for a float kappa
    log_kap = log_big(kappa)
    return StructureSpec(Kind.ASSEMBLY, f"esf({kappa})",
                         lambda i: kap * math.factorial(i - 1),
                         meta=LogMeta(kappa, 1.0),
                         log_m_fn=lambda n: _log_factorials(n, log_kap),
                         params={"builtin": "esf", "kappa": kappa})


def integer_partitions() -> StructureSpec:
    return StructureSpec(Kind.MULTISET, "integer_partitions", lambda i: 1,
                         log_m_fn=_log_m_const(),
                         params={"builtin": "integer_partitions"})


def polynomials(q: int) -> StructureSpec:
    if q < 2:
        raise ParameterDomainError("polynomials builtin needs q >= 2")
    return StructureSpec(Kind.MULTISET, f"polynomials(q={q})", _poly_m(q),
                         meta=LogMeta(1, float(q)), log_m_fn=_log_poly_m(q),
                         params={"builtin": "polynomials", "q": q})


def necklaces(q: int) -> StructureSpec:
    spec = polynomials(q)
    spec.name = f"necklaces(q={q})"
    spec.params = {"builtin": "necklaces", "q": q}
    return spec


def distinct_partitions() -> StructureSpec:
    return StructureSpec(Kind.SELECTION, "distinct_partitions", lambda i: 1,
                         log_m_fn=_log_m_const(),
                         params={"builtin": "distinct_partitions"})


def distinct_odd_partitions() -> StructureSpec:
    return StructureSpec(Kind.SELECTION, "distinct_odd_partitions",
                         lambda i: i % 2, log_m_fn=_log_m_const(2),
                         params={"builtin": "distinct_odd_partitions"})


def squarefree_polynomials(q: int) -> StructureSpec:
    if q < 2:
        raise ParameterDomainError("squarefree_polynomials builtin needs q >= 2")
    return StructureSpec(Kind.SELECTION, f"squarefree_polynomials(q={q})",
                         _poly_m(q), meta=LogMeta(1, float(q)),
                         log_m_fn=_log_poly_m(q),
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

    def log_m(n: int) -> np.ndarray:
        out = np.full(n + 1, -np.inf)
        out[1:min(n, len(ms)) + 1] = [log_big(v) for v in ms[:n]]
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
    if isinstance(v, ComponentVector):
        a, n = v.a, v.n
    else:
        a = tuple(v)
        n = len(a) if n is None else n
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
    """[p_theta(0), ..., p_theta(n)] exactly, by coefficient recurrence.

    Assemblies:  p(n) = sum_j C(n-1, j-1) theta m_j p(n-j)       (EGF exp relation)
    Multisets:   n p(n) = sum_i [sum_{k|i} k m_k theta^{i/k}] p(n-i)
    Selections:  same with g(i) = -sum_{k|i} k m_k (-theta)^{i/k}

    The recurrences run on plain integers P(k) = s_k p(k), never on
    Fractions.  With theta = a/b:
      * assemblies: s_k = D^k, D the lcm of the denominators of theta m_j
        (j <= n), and P(n) = sum_j C(n-1, j-1) D^j theta m_j P(n-j);
      * multisets and selections: s_k = D^k with D = b L, L the lcm of the
        denominators of m_j, times k! when L > 1.  n P(n) is
        sum_i c_i D^i g(i) P(n-i), with c_i = n!/(n-i)! when k! is in the
        scale and 1 otherwise; the division by n is exact.
    Each entry is divided by its s_k once, at the end, and a value with
    denominator 1 is returned as an int.

    theta must be an int or Fraction for exactness.
    """
    if not isinstance(theta, (int, Fraction)):
        raise ParameterDomainError("exact p_theta table needs rational theta")
    theta = as_integral(Fraction(theta))
    key = ("ptheta", theta)
    cached = spec._table_cache.get(key)
    if cached is not None and len(cached) > n:
        return cached[: n + 1]

    a, b = theta.numerator, theta.denominator
    ms = [Fraction(0)] + [Fraction(spec.m(j)) for j in range(1, n + 1)]
    P = [1]
    if spec.kind is Kind.ASSEMBLY:
        tm = [theta * mj for mj in ms]
        D = math.lcm(*(t.denominator for t in tm))
        w = [t.numerator * (D ** j // t.denominator) for j, t in enumerate(tm)][1:]
        while w and not w[-1]:  # m_j = 0 beyond an explicit m list
            w.pop()
        fact = False
        # C(nn-1, j-1) for j = 1..min(nn, len(w)), by Pascal's rule
        row = [1]
        for nn in range(1, n + 1):
            P.append(sum(map(mul, map(mul, row, w), reversed(P))))
            row = [1] + [u + v for u, v in zip(row, row[1:] + [0])][:len(w) - 1]
    else:
        L = math.lcm(*(mj.denominator for mj in ms))
        D, fact = b * L, L > 1
        sign, ta = (1, a) if spec.kind is Kind.MULTISET else (-1, -a)
        Lm = [mj.numerator * (L // mj.denominator) for mj in ms]  # L m_j
        divs = divisor_sieve(n)
        # G(i) = D^i g(i) = sign L^{i-1} sum_{k|i} k (L m_k) ta^{i/k} b^{i-i/k}
        G = [0]
        for i in range(1, n + 1):
            G.append(sign * L ** (i - 1) * sum(
                k * Lm[k] * ta ** (i // k) * b ** (i - i // k)
                for k in divs[i] if Lm[k]))
        for nn in range(1, n + 1):
            terms = map(mul, G[1:nn + 1], reversed(P))
            if fact:
                terms = map(mul, accumulate(range(nn, 0, -1), mul), terms)
            q, rem = divmod(sum(terms), nn)
            if rem:
                raise RuntimeError(
                    f"p_theta({nn}) recurrence left remainder {rem} mod {nn}")
            P.append(q)
    p: list[BigCount] = []
    s = 1
    for k, v in enumerate(P):
        p.append(as_integral(Fraction(v, s)))
        s *= D * (k + 1) if fact else D
    spec._table_cache[key] = p
    return p


def exact_route(n: int, theta: Numeric) -> bool:
    """Whether p_theta up to n is computed exactly: theta is an int or a
    Fraction and n <= EXACT_CUTOFF.  Every default exact/float choice reads
    this rule."""
    return isinstance(theta, (int, Fraction)) and n <= EXACT_CUTOFF


def log_ptheta_table(spec: StructureSpec, n: int, theta: Numeric = 1,
                     x: Optional[Numeric] = None) -> list[float]:
    """[log p_theta(k)]_{k<=n} as floats: the logs of the exact table where
    exact_route holds, the float table _float_log_table otherwise, which
    raises the underflow NumericGuardError if any entry is unresolved."""
    if exact_route(n, theta):
        return [log_big(v) for v in ptheta_table(spec, n, theta)]
    out = _float_log_table(spec, n, theta, x)
    bad = np.flatnonzero(np.isnan(out))
    if bad.size:
        raise _underflow_error(n, int(bad[0]))
    return out.tolist()


def _float_log_table(spec: StructureSpec, n: int, theta: Numeric,
                     x: Optional[Numeric]) -> np.ndarray:
    """[log p_theta(k)]_{k<=n} from the full index set's weighted sum at x
    (the exact-mean x when None): x^k p_theta(k) [/k! for assemblies] is
    the k-th coefficient of the generating function restricted to sizes
    <= n, which sumdist._log_coeff_table reads off the request's one
    full-set triple: the recursion, or the convolution where a selection's
    certified route fell back to it.  The result does not depend on x
    beyond rounding.  On either route an entry k < n below double range is
    NaN: p_total and the closed form of prob-t read entry n alone, and
    log_ptheta_table raises where any entry is NaN."""
    from . import sumdist  # deferred: sumdist imports this module
    from .indep_process import (TiltedParams, choose_x, XStrategy,
                                log_factorial_array)
    if x is None:
        x = choose_x(spec, n, theta, XStrategy.EXACT_MEAN)
    params = TiltedParams(x=x, theta=theta)
    out = sumdist._log_coeff_table(spec, n, params) \
        - np.arange(n + 1) * math.log(float(x))
    if spec.kind is Kind.ASSEMBLY:
        out += log_factorial_array(spec, n)
    return out


def _underflow_error(n: int, k="n") -> NumericGuardError:
    return NumericGuardError(f"P(T_n = {k}) underflowed to 0 at n = {n}; "
                             "choose an x nearer the exact-mean x")


def p_total(spec: StructureSpec, n: int, theta: Numeric = 1, *,
            exact: Optional[bool] = None,
            x: Optional[Numeric] = None) -> Union[BigCount, float]:
    """Total theta-biased count p_theta(n) = sum_k p(n,k) theta^k.

    exact=True (the default where exact_route holds) returns an exact
    int/Fraction; exact=False returns entry n of the float table
    (_float_log_table) at x, which does not depend on x beyond rounding.
    """
    if n < 0:
        raise ParameterDomainError("n must be >= 0")
    if n == 0:
        return 1
    if exact is None:
        exact = exact_route(n, theta)
    if exact:
        return ptheta_table(spec, n, theta)[n]
    return math.exp(_float_log_table(spec, n, theta, x)[n])


# ---------------------------------------------------------------------------
# the combinatorial law
# ---------------------------------------------------------------------------

def uniform_pmf(spec: StructureSpec, v: Union[ComponentVector, Sequence[int]],
                theta: Numeric = 1, n: Optional[int] = None) -> Union[Fraction, float]:
    """P_theta(C(n) = a) = theta^{sum a} N(n, a) / p_theta(n); 0 if incomplete.

    Exact Fraction for rational theta (and rational m_i), float otherwise.
    """
    if isinstance(v, ComponentVector):
        a, n = v.a, v.n
    else:
        a = tuple(v)
        n = len(a) if n is None else n
    nn = count_N(spec, a, n)
    if nn == 0:
        return Fraction(0) if isinstance(theta, (int, Fraction)) else 0.0
    k = sum(a)
    if isinstance(theta, (int, Fraction)):
        return Fraction(theta) ** k * nn / ptheta_table(spec, n, theta)[n]
    return float(theta) ** k * float(nn) / p_total(spec, n, theta, exact=False)
