"""Total variation and Wasserstein distances for the conditioned processes.

The centerpiece is the exact identity reducing d_TV(C_B, Z_B) to a
one-dimensional computation over the weighted sums R_B and S_B:

    d_TV = (1/2) P(R_B > n)
         + (1/2) sum_{r=0}^n P(R_B = r) |P(S_B = n - r)/P(T_n = n) - 1|

The mass at r > n contributes fully (S_B >= 0 forces P(S = n - r) = 0
there), so the tail term is exact, not an estimate.  Also here: the lower
bound P(R_B > n), the three conditioned-structure bounds, the local-limit
heuristic estimate (clearly labelled, never mixed with exact values), and
the overpowering bound E h(C) <= E h(Z) / P(T = t).  Sums over 0..n are
numpy's own pairwise reductions, not np.dot, whose rounding would depend on
how many threads OpenBLAS splits it across.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ParameterDomainError
from .structures import StructureSpec
from .indep_process import TiltedParams, mean_var_arrays
from .sumdist import (PmfVector, _index_array, conditioned_block, index_set,
                      weighted_sum_pmf)


@dataclass(frozen=True)
class TvBracket:
    """TV distance between truncated pmfs: body sum plus tail bracket.

    The contribution of the two tails lies between |tail_p - tail_q|/2 and
    (tail_p + tail_q)/2; lower/upper carry both readings.
    """

    lower: float
    upper: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lower + self.upper)


def tv_discrete(p: PmfVector, q: PmfVector) -> TvBracket:
    """(1/2) sum |p - q| over aligned supports, tails bracketed.

    Callers should truncate both laws at the same n_max; a shorter body is
    zero-padded, which treats its tail as mass above the common bound.
    """
    n = max(p.n_max, q.n_max)
    pa = np.zeros(n + 1)
    pa[: p.n_max + 1] = p.p
    qa = np.zeros(n + 1)
    qa[: q.n_max + 1] = q.p
    body = 0.5 * float(np.abs(pa - qa).sum())
    return TvBracket(lower=min(1.0, body + 0.5 * abs(p.tail - q.tail)),
                     upper=min(1.0, body + 0.5 * (p.tail + q.tail)))


def wasserstein_discrete(p: PmfVector, q: PmfVector) -> float:
    """L1 Wasserstein distance sum_{i>=1} |P(X>=i) - P(Y>=i)| on Z_+.

    Supports are truncated; beyond max(n_max) both survivals equal their
    (assumed negligible) tails and contribute nothing.
    """
    n = max(p.n_max, q.n_max)
    sp = np.full(n + 2, p.tail)
    sp[: p.n_max + 2] = p.survival()
    sq = np.full(n + 2, q.tail)
    sq[: q.n_max + 2] = q.survival()
    return float(np.abs(sp[1:] - sq[1:]).sum())


@dataclass(frozen=True)
class TvReport:
    """Exact d_TV(C_B, Z_B) = min(1, tail_term + body_term), its lower
    bound, and an optional heuristic."""

    lower: float
    tail_term: float
    body_term: float
    heuristic: Optional[float] = None

    def __post_init__(self):
        if not (-1e-12 <= self.lower <= self.exact + 1e-12 <= 1 + 1e-9):
            raise ParameterDomainError(
                f"TV report violates 0 <= lower <= exact <= 1: {self}")

    @property
    def exact(self) -> float:
        return min(1.0, self.tail_term + self.body_term)


def tv_CB_ZB(spec: StructureSpec, B: Iterable[int], n: int,
             params: TiltedParams, with_heuristic: bool = False) -> TvReport:
    """Exact d_TV between the combinatorial process and the independent one,
    both restricted to sizes in B, for weight-n structures under P_theta."""
    B = index_set(B)
    pr, ps, pt = conditioned_block(spec, B, n, params)
    body = 0.5 * float((pr.p * np.abs(ps.p[::-1] / pt - 1.0)).sum())
    tail_term = 0.5 * pr.tail
    heur = tv_heuristic(spec, B, n, params, pr=pr) if with_heuristic else None
    return TvReport(lower=min(pr.tail, 1.0, tail_term + body),
                    tail_term=tail_term, body_term=body, heuristic=heur)


def tv_conditioned_bounds(p: float, q: float, d_A: float,
                          d_B: float) -> tuple[float, float, float]:
    """The three bounds on d_TV of processes conditioned on an event of
    probability p (independent side) and q (combinatorial side):

        b0 = |1 - q/p|/2 + d_B/p,  b1 = (d_A/2 + d_B)/p,  b2 = (3/2) d_B/p.

    b0 <= b1 <= b2 whenever |p - q| <= d_A <= d_B.
    """
    if p <= 0 or q <= 0:
        raise ParameterDomainError("conditioning probabilities must be positive")
    b0 = 0.5 * abs(1.0 - q / p) + d_B / p
    b1 = (0.5 * d_A + d_B) / p
    b2 = 1.5 * d_B / p
    return b0, b1, b2


def tv_heuristic(spec: StructureSpec, B: Iterable[int], n: int,
                 params: TiltedParams,
                 pr: Optional[PmfVector] = None) -> float:
    """Local-limit heuristic (1/2)|kappa_eff - 1| E|R_B - E R_B| / n.

    kappa_eff is theta * kappa from the spec's logarithmic metadata (the
    theta-biased process behaves like the Ewens family with parameter
    kappa*theta).  pr, the pmf of R_B on 0..n when the caller has it, is
    not recomputed.  This is an estimate, kept separate from exact values.
    """
    if spec.meta is None:
        raise ParameterDomainError(
            "heuristic needs logarithmic-class metadata (kappa, y)")
    kappa_eff = float(spec.meta.kappa) * params.ftheta
    B = index_set(B)
    if not B:
        return 0.0
    if pr is None:
        pr = weighted_sum_pmf(spec, B, n, params)
    mean, _ = mean_var_arrays(spec, max(B), params)
    idx = _index_array(B)
    mu = float((idx * mean[idx]).sum())
    r = np.arange(n + 1)
    mad = float((np.abs(r - mu) * pr.p).sum())
    if pr.tail > 0 and mu <= n:
        # mass above n contributes (r - mu); recover it from the exact mean
        mad += (mu - float((r * pr.p).sum())) - mu * pr.tail
    return 0.5 * abs(kappa_eff - 1.0) * mad / n


def overpower_bound(expectation_Z: float, prob_T: float) -> float:
    """Upper bound E h(C) <= E h(Z) / P(T = t) for nonnegative h."""
    if prob_T <= 0:
        raise ParameterDomainError("P(T = t) must be positive")
    if expectation_Z < 0:
        raise ParameterDomainError("h must be nonnegative")
    return expectation_Z / prob_T


def permutation_tail_bound(x: float) -> float:
    """The explicit decay bound F for uniform permutations restricted to
    {1..b}: with m = floor(x) and x = n/b,

        F(x) = sqrt(2 pi m) 2^{m-1}/(m-1)! + 1/m! + 3 (x/e)^{-x}.
    """
    if x < 1:
        raise ParameterDomainError("bound needs x >= 1")
    m = math.floor(x)
    return (math.sqrt(2 * math.pi * m) * 2.0 ** (m - 1) / math.factorial(m - 1)
            + 1.0 / math.factorial(m) + 3.0 * (x / math.e) ** (-x))
