"""Scalar test references.  The scalar forms of log P(Z_i = 0) at big m_i
that indep_process.log_p_zero replaced: m log1p(-t) for a multiset index
and m log(1 + e^lw) for a selection index, one index per call; the law of
Z_i from the exact m_i and its scalar log pmf with its rising and falling
logs, each log k! read from structures.log_factorials, the package's one
log k!; and the per-kind log weight in mpmath."""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from combstruct.errors import ParameterDomainError
from combstruct.structures import Kind, log_big, log_factorials

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


def log_factorial(k):
    """log k!, entry k of structures.log_factorials."""
    return float(log_factorials(k)[k])


# The scalar per-k log pmf that DiscreteLaw.log_pmf computed before pmf(k)
# became entry k of pmf_array, with its rising and falling logs, on a law of
# Z_i built here from the exact m_i, one index at a time.

_LOG_RISING_SWITCH = math.log(1e3)


@dataclass(frozen=True)
class RefLaw:
    """The law of Z_i: the spec's kind, m = m_i, lw = log(theta x^i) and
    log_p0 = log P(Z_i = 0)."""

    kind: Kind
    m: object
    lw: float
    log_p0: float

    @property
    def lam(self):
        """-log P(Z_i = 0), the Poisson mean of an assembly's Z_i."""
        return -self.log_p0


def ref_law(spec, i, x, theta=1):
    """Z_i of spec at (x, theta), from m_i = spec.m(i): lw = log theta +
    i log x, and log P(Z_i = 0) is -lam with lam = theta m_i x^i / i! the
    exp of log m_i - log i! + lw (assembly; -inf past double range),
    safe_mlog1p (multiset) or -m_softplus (selection) of log m_i."""
    m = spec.m(i)
    lm = log_big(m)
    lw = math.log(theta) + i * math.log(x)
    if spec.kind is Kind.ASSEMBLY:
        try:
            c = -math.exp(lm - log_factorial(i) + lw)
        except OverflowError:
            c = -math.inf
    elif spec.kind is Kind.MULTISET:
        c = safe_mlog1p(lm, math.exp(lw), lw)
    else:
        c = -m_softplus(lm, lw)
    return RefLaw(spec.kind, m, lw, c)


def _inv_m(m, lm):
    return 1.0 / float(m) if lm < 700 else math.exp(-lm)


def log_rising(m, lm, k):
    """log m(m+1)...(m+k-1), big-m safe: log (m+k-1)! - log (m-1)! at an
    integer m below the switch."""
    if k == 0:
        return 0.0
    if lm == -math.inf:
        return -math.inf
    if lm < _LOG_RISING_SWITCH:
        fm = float(m)
        if fm.is_integer():
            return log_factorial(int(fm) + k - 1) - log_factorial(int(fm) - 1)
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
    """log P(Z = k) of a RefLaw, one k per call."""
    if k < 0:
        return -math.inf
    if law.kind is Kind.ASSEMBLY:
        if law.lam == 0.0:
            return 0.0 if k == 0 else -math.inf
        return law.log_p0 + k * math.log(law.lam) - log_factorial(k)
    lm = log_big(law.m)
    if law.kind is Kind.MULTISET:
        return (log_rising(law.m, lm, k) - log_factorial(k)
                + law.log_p0 + k * law.lw)
    lf = log_falling(law.m, lm, k)
    if lf == -math.inf:
        return -math.inf
    return lf - log_factorial(k) + k * law.lw + law.log_p0


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
