"""Falling-factorial moments of component counts under the tilted measure.

Assemblies get the joint formula

    E prod_j (C_j)_[r_j] = 1(m <= n) x^{-m} (n!/p_theta(n))
                           (p_theta(n-m)/(n-m)!) prod_j (theta m_j x^j / j!)^{r_j}

in which x cancels; multisets and selections get single-index sums over
p_theta(n - jm) (no joint closed form exists for those kinds here; the
enumeration oracle covers joint cases in tests).  The Ewens family has its
own explicit pmf and the classical closed-form moment, used as a
cross-check of the assembly formula.

The p_theta values are batch-computed once per call from a shared table:
exact big rationals where structures.exact_route holds, the float log
p_theta table beyond, checked once per (n, theta, x) and kept on the spec.
A selection's float sum alternates; where it cancels by more than
2^_CANCEL_BITS it raises NumericGuardError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import NumericGuardError, ParameterDomainError
from .structures import (ComponentVector, Kind, Numeric, StructureSpec,
                         as_integral, exact_route, falling, log_big,
                         log_factorials, log_ptheta_table, ptheta_table,
                         rising)
from .indep_process import TiltedParams, log_factorial_array, log_m_array
from .sumdist import _CANCEL_BITS


@dataclass(frozen=True)
class MomentSpec:
    """Falling-factorial orders r: j -> r_j, finitely supported."""

    orders: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, r: Union["MomentSpec", Mapping[int, int]]) -> "MomentSpec":
        if isinstance(r, MomentSpec):
            return r
        items = tuple(sorted((int(j), int(rj)) for j, rj in r.items() if rj))
        for j, rj in items:
            if j < 1 or rj < 0:
                raise ParameterDomainError("orders need j >= 1 and r_j >= 0")
        return cls(orders=items)

    @property
    def weight(self) -> int:
        """m = sum_j j r_j, the total weight removed by the moment."""
        return sum(j * rj for j, rj in self.orders)


def _positive_theta(theta: Numeric) -> Numeric:
    """theta, checked before any early return: a moment that is 0 at every
    positive theta (j r > n, or m_j = 0) is no answer at theta <= 0."""
    if not theta > 0:
        raise ParameterDomainError(f"theta must be positive, got {theta}")
    return theta


def _moment_table(spec: StructureSpec, n: int, theta: Numeric,
                  params: Optional[TiltedParams]) -> list:
    """The p_theta table a moment reads, exact where exact_route holds and
    float logs beyond, read before any early return and refused where
    p_theta(n) = 0: every moment divides by p_theta(n), so a moment that
    is 0 wherever structures of weight n exist has no value where none do.
    The float table is checked and converted to a list once per (n, theta,
    x) and kept in the spec's "moment_log_table" slot, so the rows of
    `moments --j 1..n` do not each redo that O(n) pass."""
    if exact_route(n, theta):
        tab = ptheta_table(spec, n, theta)
        empty = tab[n] == 0
    else:
        x = None if params is None else params.x
        tab = spec.table("moment_log_table",
                         lambda: log_ptheta_table(spec, n, theta, x=x),
                         key=(n, theta, x))
        empty = tab[n] == -math.inf
    if empty:
        raise ParameterDomainError(f"no structures of weight {n}")
    return tab


def factorial_moment_assembly(spec: StructureSpec, n: int,
                              r: Union[MomentSpec, Mapping[int, int]],
                              params: Optional[TiltedParams] = None,
                              theta: Numeric = 1) -> float:
    """Joint falling-factorial moment E_theta prod_j (C_j(n))_[r_j], assemblies."""
    if spec.kind is not Kind.ASSEMBLY:
        raise ParameterDomainError("joint factorial moments apply to assemblies")
    r = MomentSpec.of(r)
    theta = _positive_theta(params.theta if params is not None else theta)
    m = r.weight
    tab = _moment_table(spec, n, theta, params)
    if m > n:
        return 0.0
    if exact_route(n, theta):
        val = Fraction(math.factorial(n), math.factorial(n - m)) \
            * Fraction(tab[n - m]) / Fraction(tab[n])
        for j, rj in r.orders:
            mj = spec.m(j)
            if mj == 0:
                return 0.0
            val *= (Fraction(theta) * Fraction(mj) / math.factorial(j)) ** rj
        return float(val)
    lf = log_factorial_array(spec, n)  # the log k! that the float table added
    acc = lf[n] - lf[n - m] + tab[n - m] - tab[n]
    lm = log_m_array(spec, max((j for j, _ in r.orders), default=0))
    for j, rj in r.orders:
        if lm[j] == -math.inf:
            return 0.0
        acc += rj * (math.log(float(theta)) + float(lm[j]))  # lm: log(m_j/j!)
    return math.exp(acc)


def factorial_moment_single(spec: StructureSpec, n: int, j: int, r: int,
                            params: Optional[TiltedParams] = None,
                            theta: Numeric = 1) -> float:
    """E_theta (C_j(n))_[r] for any kind; r >= 1, zero when j r > n.

    Multisets: Gamma(m_j+r)/Gamma(m_j) / p(n) * sum_m C(m-1, r-1) theta^m p(n-jm);
    selections get the alternating-sign analogue with the falling factorial
    (m_j)_[r] (zero when r > m_j); assemblies delegate to the joint formula.
    The float selection sum raises NumericGuardError when sum |terms|
    exceeds 2^_CANCEL_BITS |sum terms|, and the float sum of either kind
    when a term is beyond double range.
    """
    if r < 1:
        raise ParameterDomainError("r must be >= 1")
    if j < 1:
        raise ParameterDomainError("j must be >= 1")
    theta = _positive_theta(params.theta if params is not None else theta)
    if spec.kind is Kind.ASSEMBLY:
        return factorial_moment_assembly(spec, n, {j: r}, params, theta)
    tab = _moment_table(spec, n, theta, params)
    if j * r > n:
        return 0.0
    mj = spec.m(j)
    if mj == 0:
        return 0.0
    if spec.kind is Kind.SELECTION and isinstance(mj, int) and r > mj:
        return 0.0
    if exact_route(n, theta):
        # theta = a/b: the sum times b^top L (L the lcm of the table
        # denominators it reads) is an integer, so the terms are added as
        # integers and one Fraction is built at the end
        th = Fraction(theta)
        a, b = th.numerator, th.denominator
        top = n // j
        vals = [tab[n - j * m] for m in range(r, top + 1)]
        den = math.lcm(*(v.denominator for v in vals))
        total, b_pow = 0, 1
        for m in range(top, r - 1, -1):
            v = vals[m - r]
            term = (math.comb(m - 1, r - 1) * a ** m * b_pow
                    * v.numerator * (den // v.denominator))
            if spec.kind is Kind.SELECTION and (m - r) % 2 == 1:
                term = -term
            total += term
            b_pow *= b
        lead = rising(mj, r) if spec.kind is Kind.MULTISET else falling(mj, r)
        last = tab[n]
        return float(Fraction(lead.numerator * total * last.denominator,
                              lead.denominator * b ** top * den
                              * last.numerator))
    # float path: log-space p_theta table, compensated alternating sum.
    # The lead (m_j)^(r) or (m_j)_[r] goes into each term's log, so every
    # term is a term of the moment itself: m_j grows like q^j / j for the
    # polynomial families, far past double range, while E C_j stays near 1/j
    lead = rising(mj, r) if spec.kind is Kind.MULTISET else falling(mj, r)
    l0 = log_big(lead) - tab[n]
    lth = math.log(float(theta))
    terms = []
    for m in range(r, n // j + 1):
        lt = math.log(math.comb(m - 1, r - 1)) + m * lth + tab[n - j * m]
        sign = -1.0 if (spec.kind is Kind.SELECTION and (m - r) % 2 == 1) else 1.0
        try:
            terms.append(sign * math.exp(lt + l0))
        except OverflowError:
            raise NumericGuardError(
                f"moment term lead theta^m p_theta(n - jm) / p_theta(n) at "
                f"m = {m} is beyond double range") from None
    total = math.fsum(terms)
    if spec.kind is Kind.MULTISET:
        return total
    # the alternating sum loses about log2 of sum |terms| / |sum| bits
    size = math.fsum(map(abs, terms))
    if size > 2.0 ** _CANCEL_BITS * abs(total):
        raise NumericGuardError(
            f"selection moment sum cancels by more than 2^{_CANCEL_BITS}: "
            f"sum |terms| = {size:.3g}, |sum| = {abs(total):.3g}")
    return total


# ---------------------------------------------------------------------------
# Ewens sampling formula closed forms
# ---------------------------------------------------------------------------

def esf_pmf(n: int, kappa: Numeric,
            v: Union[ComponentVector, Sequence[int]]) -> Union[Fraction, float]:
    """P(C = a) = 1(sum l a_l = n) (n!/kappa_(n)) prod (kappa/i)^{a_i} / a_i!."""
    if kappa <= 0:
        raise ParameterDomainError("kappa must be positive")
    a = v.a if isinstance(v, ComponentVector) else tuple(v)
    if isinstance(v, ComponentVector) and len(a) != n:
        raise ParameterDomainError("vector length disagrees with n")
    if sum((i + 1) * ai for i, ai in enumerate(a)) != n:
        return Fraction(0) if isinstance(kappa, (int, Fraction)) else 0.0
    if isinstance(kappa, (int, Fraction)):
        kap = Fraction(kappa)
        val = Fraction(math.factorial(n)) / rising(kap, n)
        for i, ai in enumerate(a, start=1):
            if ai:
                val *= (kap / i) ** ai
                val /= math.factorial(ai)
        return as_integral(val)
    lf = log_factorials(n)
    acc = lf[n] - log_big(rising(kappa, n))
    for i, ai in enumerate(a, start=1):
        if ai:
            acc += ai * (math.log(kappa) - math.log(i)) - lf[ai]
    return math.exp(acc)


def esf_moment(n: int, kappa: Numeric,
               r: Union[MomentSpec, Mapping[int, int]]) -> float:
    """Closed-form ESF joint moment:
    1(m <= n) C(kappa+n-m-1, n-m) C(kappa+n-1, n)^{-1} prod (kappa/j)^{r_j},
    exact (a float kappa enters as its exact binary rational) and rounded
    once.
    """
    if kappa <= 0:
        raise ParameterDomainError("kappa must be positive")
    r = MomentSpec.of(r)
    m = r.weight
    if m > n:
        return 0.0
    a, b = Fraction(kappa).as_integer_ratio()
    # C(kappa+n-m-1, n-m) / C(kappa+n-1, n)
    #   = kappa_(n-m) n! / ((n-m)! kappa_(n)) = n^(m) / (kappa+n-m)_(m),
    # and with kappa = a/b the moment is n^(m) b^m prod a^{r_j} over
    # prod_{t<m} (a + b(n-m+t)) prod (b j)^{r_j}: two integers, whose true
    # division is correctly rounded, as float(Fraction) is
    num = math.prod(range(n - m + 1, n + 1)) * b ** m
    den = math.prod(range(a + b * (n - m), a + b * n, b))
    for j, rj in r.orders:
        num *= a ** rj
        den *= (b * j) ** rj
    return num / den

