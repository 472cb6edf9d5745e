"""The scalar forms of log P(Z_i = 0) at big m_i that indep_process.log_p_zero
replaced, kept as test references: m log1p(-t) for a multiset index and
m log(1 + e^lw) for a selection index, one index per call."""

import math

from combstruct.errors import ParameterDomainError

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
