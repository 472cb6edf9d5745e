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
exact big rationals up to n = EXACT_CUTOFF, a log-space table from the
full-set recursion beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Mapping, Optional, Sequence, Union

from .errors import ParameterDomainError
from .structures import (EXACT_CUTOFF, ComponentVector, Kind, Numeric,
                         StructureSpec, as_integral, log_big, log_ptheta_table,
                         ptheta_table)
from .indep_process import TiltedParams, log_m_array


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


def _exact_ok(spec: StructureSpec, n: int, theta: Numeric) -> bool:
    return isinstance(theta, (int, Fraction)) and n <= EXACT_CUTOFF


def factorial_moment_assembly(spec: StructureSpec, n: int,
                              r: Union[MomentSpec, Mapping[int, int]],
                              params: Optional[TiltedParams] = None,
                              theta: Numeric = 1) -> float:
    """Joint falling-factorial moment E_theta prod_j (C_j(n))_[r_j], assemblies."""
    if spec.kind is not Kind.ASSEMBLY:
        raise ParameterDomainError("joint factorial moments apply to assemblies")
    r = MomentSpec.of(r)
    theta = params.theta if params is not None else theta
    m = r.weight
    if m > n:
        return 0.0
    if _exact_ok(spec, n, theta):
        tab = ptheta_table(spec, n, theta)
        if tab[n] == 0:
            raise ParameterDomainError(f"no structures of weight {n}")
        val = Fraction(math.factorial(n), math.factorial(n - m)) \
            * Fraction(tab[n - m]) / Fraction(tab[n])
        for j, rj in r.orders:
            mj = spec.m(j)
            if mj == 0:
                return 0.0
            val *= (Fraction(theta) * Fraction(mj) / math.factorial(j)) ** rj
        return float(val)
    logt = log_ptheta_table(spec, n, theta, x=None if params is None else params.x)
    acc = math.lgamma(n + 1) - math.lgamma(n - m + 1) + logt[n - m] - logt[n]
    lm = log_m_array(spec, max((j for j, _ in r.orders), default=0))
    for j, rj in r.orders:
        if lm[j] == -math.inf:
            return 0.0
        acc += rj * (math.log(float(theta)) + float(lm[j]) - math.lgamma(j + 1))
    return math.exp(acc)


def _rising(mj: Numeric, k: int) -> Fraction:
    out = Fraction(1)
    for t in range(k):
        out *= (Fraction(mj) + t)
    return out


def _falling(mj: Numeric, k: int) -> Fraction:
    out = Fraction(1)
    for t in range(k):
        out *= (Fraction(mj) - t)
    return out


def factorial_moment_single(spec: StructureSpec, n: int, j: int, r: int,
                            params: Optional[TiltedParams] = None,
                            theta: Numeric = 1) -> float:
    """E_theta (C_j(n))_[r] for any kind; r >= 1, zero when j r > n.

    Multisets: Gamma(m_j+r)/Gamma(m_j) / p(n) * sum_m C(m-1, r-1) theta^m p(n-jm);
    selections get the alternating-sign analogue with the falling factorial
    (m_j)_[r] (zero when r > m_j); assemblies delegate to the joint formula.
    """
    if r < 1:
        raise ParameterDomainError("r must be >= 1")
    if j < 1:
        raise ParameterDomainError("j must be >= 1")
    theta = params.theta if params is not None else theta
    if spec.kind is Kind.ASSEMBLY:
        return factorial_moment_assembly(spec, n, {j: r}, params, theta)
    if j * r > n:
        return 0.0
    mj = spec.m(j)
    if mj == 0:
        return 0.0
    if spec.kind is Kind.SELECTION and isinstance(mj, int) and r > mj:
        return 0.0
    if _exact_ok(spec, n, theta):
        tab = ptheta_table(spec, n, theta)
        if tab[n] == 0:
            raise ParameterDomainError(f"no structures of weight {n}")
        th = Fraction(theta)
        total = Fraction(0)
        for m in range(r, n // j + 1):
            term = math.comb(m - 1, r - 1) * th ** m * Fraction(tab[n - j * m])
            if spec.kind is Kind.SELECTION and (m - r) % 2 == 1:
                term = -term
            total += term
        lead = _rising(mj, r) if spec.kind is Kind.MULTISET else _falling(mj, r)
        return float(lead * total / Fraction(tab[n]))
    # float path: log-space p_theta table, compensated alternating sum
    logt = log_ptheta_table(spec, n, theta, x=None if params is None else params.x)
    lth = math.log(float(theta))
    terms = []
    for m in range(r, n // j + 1):
        lt = math.log(math.comb(m - 1, r - 1)) + m * lth + logt[n - j * m]
        sign = -1.0 if (spec.kind is Kind.SELECTION and (m - r) % 2 == 1) else 1.0
        terms.append(sign * math.exp(lt - logt[n]))
    total = math.fsum(terms)
    llead = _log_rising_f(mj, r) if spec.kind is Kind.MULTISET else None
    if spec.kind is Kind.MULTISET:
        return math.exp(llead) * total
    return float(_falling(mj, r)) * total


def _log_rising_f(mj: Numeric, r: int) -> float:
    return math.fsum(log_big(as_integral(Fraction(mj) + t)) for t in range(r))


# ---------------------------------------------------------------------------
# Ewens sampling formula closed forms
# ---------------------------------------------------------------------------

def esf_pmf(n: int, kappa: Numeric,
            v: Union[ComponentVector, Sequence[int]]) -> Union[Fraction, float]:
    """P(C = a) = 1(sum l a_l = n) (n!/kappa_(n)) prod (kappa/i)^{a_i} / a_i!."""
    if kappa <= 0:
        raise ParameterDomainError("kappa must be positive")
    a = v.a if isinstance(v, ComponentVector) else tuple(v)
    n_v = v.n if isinstance(v, ComponentVector) else n
    if n_v != n:
        raise ParameterDomainError("vector length disagrees with n")
    if sum((i + 1) * ai for i, ai in enumerate(a)) != n:
        return Fraction(0) if isinstance(kappa, (int, Fraction)) else 0.0
    if isinstance(kappa, (int, Fraction)):
        kap = Fraction(kappa)
        val = Fraction(math.factorial(n)) / _rising(kap, n)
        for i, ai in enumerate(a, start=1):
            if ai:
                val *= (kap / i) ** ai
                val /= math.factorial(ai)
        return as_integral(val)
    acc = math.lgamma(n + 1) - _log_rising_f(kappa, n)
    for i, ai in enumerate(a, start=1):
        if ai:
            acc += ai * (math.log(kappa) - math.log(i)) - math.lgamma(ai + 1)
    return math.exp(acc)


def _esf_kappa(kappa: Numeric) -> Fraction:
    if isinstance(kappa, (int, Fraction)):
        return Fraction(kappa)
    return Fraction(float(kappa))


def esf_rising(n: int, kappa: Numeric) -> list[Fraction]:
    """[kappa_(0), ..., kappa_(n)], the exact rising factorials of kappa."""
    return list(accumulate((_esf_kappa(kappa) + t for t in range(n)), mul,
                           initial=Fraction(1)))


def esf_moment(n: int, kappa: Numeric,
               r: Union[MomentSpec, Mapping[int, int]],
               rising: Optional[Sequence[Fraction]] = None) -> float:
    """Closed-form ESF joint moment:
    1(m <= n) C(kappa+n-m-1, n-m) C(kappa+n-1, n)^{-1} prod (kappa/j)^{r_j}.

    rising, when given, is esf_rising(n, kappa); callers that evaluate many
    moments at one (n, kappa) pass it so the table is built once.
    """
    if kappa <= 0:
        raise ParameterDomainError("kappa must be positive")
    r = MomentSpec.of(r)
    m = r.weight
    if m > n:
        return 0.0
    kap = _esf_kappa(kappa)
    if rising is None:
        rising = esf_rising(n, kappa)
    # C(kappa+n-m-1, n-m) / C(kappa+n-1, n) = kappa_(n-m) n! / ((n-m)! kappa_(n))
    val = rising[n - m] * math.factorial(n) \
        / (math.factorial(n - m) * rising[n])
    for j, rj in r.orders:
        val *= (kap / j) ** rj
    return float(val)


def expected_theta_K(spec: StructureSpec, n: int, theta: Numeric) -> float:
    """E theta^{K_n} = p_theta(n) / p(n)."""
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    if _exact_ok(spec, n, theta):
        tab_t = ptheta_table(spec, n, theta)
        tab_1 = ptheta_table(spec, n, 1)
        if tab_1[n] == 0:
            raise ParameterDomainError(f"no structures of weight {n}")
        return float(Fraction(tab_t[n]) / Fraction(tab_1[n]))
    lt = log_ptheta_table(spec, n, theta)
    l1 = log_ptheta_table(spec, n, 1)
    return math.exp(lt[n] - l1[n])
