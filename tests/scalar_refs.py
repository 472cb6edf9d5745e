"""Scalar test references.  The scalar forms of log P(Z_i = 0) at big m_i
that indep_process.log_p_zero replaced: m log1p(-t) for a multiset index
and m log(1 + e^lw) for a selection index, one index per call; the scalar
log pmf with its rising and falling logs; and the per-kind log weight in
mpmath."""

import math
from fractions import Fraction

import mpmath

from combstruct.errors import ParameterDomainError
from combstruct.structures import Kind

_LOG_TINY = math.log(1e-8)
_LOG_EPS = math.log(2.0 ** -53)
_LOG_DBL_MIN = math.log(2.0 ** -1022)


def safe_mlog1p(log_m, t, log_t):
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


def m_softplus(lm, lw):
    """m * log(1 + e^{lw}), big-m safe."""
    if lm == -math.inf:
        return 0.0
    sp = math.log1p(math.exp(lw)) if lw < 30 else lw + math.exp(-lw)
    if lm < 700 and lw > _LOG_DBL_MIN:
        return math.exp(lm) * sp
    # log sp = lw to double precision below _LOG_EPS, where a subnormal or
    # zero e^lw would lose the digits of math.log(sp)
    out = lm + (lw if lw < _LOG_EPS else math.log(sp))
    return math.exp(out) if out < 700 else math.inf


# The scalar per-k log pmf that DiscreteLaw.log_pmf computed before pmf(k)
# became entry k of pmf_array, with its rising and falling logs.

_LOG_RISING_SWITCH = math.log(1e3)


def _inv_m(m, lm):
    return 1.0 / float(m) if lm < 700 else math.exp(-lm)


def log_rising(m, lm, k):
    """log m(m+1)...(m+k-1), big-m safe."""
    if k == 0:
        return 0.0
    if lm == -math.inf:
        return -math.inf
    if lm < _LOG_RISING_SWITCH:
        fm = float(m)
        return math.lgamma(fm + k) - math.lgamma(fm)
    step = _inv_m(m, lm)
    return k * lm + sum(math.log1p(j * step) for j in range(1, k))


def log_falling(m, lm, k):
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
    step = _inv_m(m, lm)
    return k * lm + sum(math.log1p(-j * step) for j in range(1, k))


def log_pmf(law, k):
    """log P(Z = k) of a DiscreteLaw, one k per call."""
    from combstruct.indep_process import Family
    from combstruct.structures import log_big
    if k < 0:
        return -math.inf
    if law.family is Family.POISSON:
        if law.lam == 0.0:
            return 0.0 if k == 0 else -math.inf
        return law.log_p0 + k * math.log(law.lam) - math.lgamma(k + 1)
    lm = log_big(law.m)
    if law.family is Family.NEG_BINOMIAL:
        return (log_rising(law.m, lm, k) - math.lgamma(k + 1)
                + law.log_p0 + k * law.lw)
    lf = log_falling(law.m, lm, k)
    if lf == -math.inf:
        return -math.inf
    return lf - math.lgamma(k + 1) + k * law.lw + law.log_p0


# The per-kind log weight of indep_process.log_m_array from the exact m_i.

def log_weight_mp(spec, i):
    """log(m_i / i!) for an assembly and log m_i otherwise, from the exact
    m_i in 30-digit mpmath; -inf where m_i = 0."""
    m = Fraction(spec.m(i))
    if m == 0:
        return -math.inf
    with mpmath.workdps(30):
        w = mpmath.mpf(m.numerator) / m.denominator
        if spec.kind is Kind.ASSEMBLY:
            w /= mpmath.factorial(i)
        return float(mpmath.log(w))
