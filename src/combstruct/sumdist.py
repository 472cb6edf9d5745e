"""Distributions of weighted sums R_B = sum_{i in B} i Z_i under P_theta.

The workhorse is the coefficient recursion k p(k) = sum_i g(i) p(k-i)
obtained by logarithmic differentiation of the probability generating
function: g(i) = theta i lambda_i 1(i in B) for assemblies, a divisor sum
for multisets, and a signed divisor sum for selections.  The recursion is
a positive convolution for assemblies and multisets and runs in linear
space with a shared base-2 exponent (values span thousands of orders of
magnitude for large n); the signed selection recursion can cancel, so the
production path for selections is a truncated convolution of the per-index
binomial laws, with the signed recursion kept as a verification path.  The
convolution is a strided update of length-(n_max+1) arrays, one index at a
time: p[r] <- sum_k P(Z_i = k) p[r - i k] over k <= min(n_max // i, m_i).
It costs sum_i n_max min(m_i, n_max / i), which is O(n^2) when every m_i is
0 or 1.

Everything is truncated at n_max with the missing mass reported as an
explicit tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import NumericGuardError, ParameterDomainError
from .structures import (EXACT_CUTOFF, Kind, StructureSpec, divisor_sieve,
                         log_big, log_ptheta_table, ptheta_table)
from .indep_process import (Family, TiltedParams, _m_softplus, _safe_mlog1p,
                            log_m_array, overflow_guard, z_law)

_LN2 = math.log(2.0)
_RESCALE = 2.0 ** 512
_RESCALE_INV = 2.0 ** -512

IndexSet = tuple  # sorted tuple of distinct indices >= 1


def index_set(B: Iterable[int]) -> IndexSet:
    bs = sorted(set(int(i) for i in B))
    if bs and bs[0] < 1:
        raise ParameterDomainError("index sets contain integers >= 1 only")
    return tuple(bs)


def complement(B: Iterable[int], n: int) -> IndexSet:
    bset = set(index_set(B))
    return tuple(i for i in range(1, n + 1) if i not in bset)


@dataclass
class PmfVector:
    """pmf values on 0..n_max plus the explicit mass above n_max."""

    p: np.ndarray
    tail: float
    n_max: int

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if np.any(p < -1e-13) or not np.all(np.isfinite(p)):
            raise NumericGuardError("pmf entries below -1e-13 or non-finite")
        p = np.where(p < 0, 0.0, p)
        if self.tail < 0:
            if self.tail < -1e-9:
                raise NumericGuardError(f"negative tail {self.tail}")
            self.tail = 0.0
        total = float(p.sum()) + self.tail
        if not (1 - 1e-9 <= total <= 1 + 1e-9):
            raise NumericGuardError(f"pmf mass {total} is not 1 within 1e-9")
        self.p = p
        self.n_max = len(p) - 1

    def mean(self) -> float:
        return float(np.dot(np.arange(self.n_max + 1), self.p))

    def survival(self) -> np.ndarray:
        """s[i] = P(value >= i) for i = 0..n_max+1 (s[n_max+1] = tail)."""
        s = np.concatenate([np.cumsum(self.p[::-1])[::-1] + self.tail,
                            [self.tail]])
        return s


@overflow_guard("a Poisson mean theta m_i x^i / i!")
def log_seed(spec: StructureSpec, B: Iterable[int], params: TiltedParams) -> float:
    """log P(R_B = 0) for the all-zero configuration: the recursion seed.

    Assemblies exp(-sum theta lambda_i); multisets prod (1-theta x^i)^{m_i};
    selections prod (1+theta x^i)^{-m_i}.
    """
    params.validate(spec)
    lth, lx = math.log(params.ftheta), math.log(params.fx)
    B = index_set(B)
    lms = log_m_array(spec, B[-1] if B else 0)
    total = 0.0
    for i in B:
        lm = float(lms[i])
        if lm == -math.inf:
            continue
        lw = lth + i * lx
        if spec.kind is Kind.ASSEMBLY:
            total -= math.exp(lm + lw - math.lgamma(i + 1))
        elif spec.kind is Kind.MULTISET:
            total += _safe_mlog1p(lm, math.exp(lw), lw)
        else:
            total -= _m_softplus(lm, lw)
    return total


@overflow_guard("a recursion weight g(i)")
def _g_array(spec: StructureSpec, B: IndexSet, n_max: int,
             params: TiltedParams, signed: bool = False) -> np.ndarray:
    """g[i], i = 0..n_max, for the coefficient recursion."""
    lth, lx = math.log(params.ftheta), math.log(params.fx)
    g = np.zeros(n_max + 1)
    lm = log_m_array(spec, n_max)
    bset = set(B)
    if spec.kind is Kind.ASSEMBLY:
        for i in B:
            if i <= n_max and lm[i] != -np.inf:
                g[i] = math.exp(lth + lm[i] + i * lx
                                - math.lgamma(i + 1) + math.log(i))
        return g
    divs = divisor_sieve(n_max)
    for i in range(1, n_max + 1):
        acc = 0.0
        for k in divs[i]:
            if k in bset and lm[k] != -np.inf:
                lt = math.log(k) + lm[k] + (i // k) * lth + i * lx
                term = math.exp(lt)
                if signed and (i // k) % 2 == 0:
                    acc -= term
                else:
                    acc += term
        g[i] = acc
    return g


def _recursion_coeffs(g: np.ndarray, n_max: int) -> tuple[np.ndarray, int]:
    """q with q[0] = 1, k q[k] = sum_i g[i] q[k-i]; returns (q, base-2 shift)."""
    q = np.zeros(n_max + 1)
    q[0] = 1.0
    shift = 0
    running_max = 1.0
    for k in range(1, n_max + 1):
        q[k] = float(np.dot(g[1:k + 1], q[k - 1::-1])) / k
        if q[k] > running_max:
            running_max = q[k]
        if running_max > _RESCALE:
            q[:k + 1] *= _RESCALE_INV
            running_max *= _RESCALE_INV
            shift += 512
    if not np.all(np.isfinite(q)):
        raise NumericGuardError("weighted-sum recursion overflowed")
    return q, shift


def _assemble(q: np.ndarray, shift: int, lseed: float) -> np.ndarray:
    """p[k] = q[k] * 2^shift * e^lseed without intermediate under/overflow."""
    out = np.zeros_like(q)
    pos = q > 0
    with np.errstate(divide="ignore"):
        lg = np.log2(q[pos]) + shift + lseed / _LN2
    out[pos] = np.exp2(np.clip(lg, -1074, 1024))
    return out


def _log_coeff_table(spec: StructureSpec, n: int, params: TiltedParams) -> np.ndarray:
    """Natural logs of the full-set recursion coefficients q[0..n]."""
    params.validate(spec)
    signed = spec.kind is Kind.SELECTION
    g = _g_array(spec, tuple(range(1, n + 1)), n, params, signed=signed)
    q, shift = _recursion_coeffs(g, n)
    if signed:
        q = np.where(q < 0, 0.0, q)
    with np.errstate(divide="ignore"):
        return np.log(q) + shift * _LN2


def _pmf_by_recursion(spec: StructureSpec, B: IndexSet, n_max: int,
                      params: TiltedParams) -> PmfVector:
    signed = spec.kind is Kind.SELECTION
    g = _g_array(spec, B, n_max, params, signed=signed)
    q, shift = _recursion_coeffs(g, n_max)
    if signed:
        # exact zeros come out as cancellation dust; clamp it, flag the rest
        scale = float(np.max(np.abs(q))) or 1.0
        if np.any(q < -1e-11 * scale):
            raise NumericGuardError(
                "signed selection recursion produced negative mass (cancellation)")
        q = np.where(q < 0, 0.0, q)
    p = _assemble(q, shift, log_seed(spec, B, params))
    return PmfVector(p=p, tail=max(0.0, 1.0 - float(p.sum())), n_max=n_max)


def _pmf_by_convolution(spec: StructureSpec, B: IndexSet, n_max: int,
                        params: TiltedParams) -> PmfVector:
    for _i, _pk, p in prefix_pmfs(spec, B, n_max, params):
        pass  # the last prefix pmf is the pmf of R_B
    return PmfVector(p=p, tail=max(0.0, 1.0 - float(p.sum())), n_max=n_max)


def prefix_pmfs(spec: StructureSpec, B: IndexSet, n_max: int,
                params: TiltedParams):
    """Yields (i, pk, p) for each i in B, in order: pk[k] = P(Z_i = k) for
    k <= min(n_max // i, m_i), without the trailing entries that underflow
    to 0, and p the pmf of sum_{j in B, j <= i} j Z_j on 0..n_max.

    One strided update per index, p[r] <- sum_k pk[k] p[r - i k]; an index
    with m_i = 0 has pk = [1] and leaves p as it was.
    """
    lm = log_m_array(spec, B[-1])
    p = np.zeros(n_max + 1)
    p[0] = 1.0
    for i in B:
        if lm[i] == -np.inf:
            yield i, np.ones(1), p
            continue
        law = z_law(spec, i, params)
        k_max = n_max // i
        if law.family in (Family.BINOMIAL, Family.BERNOULLI):
            k_max = min(k_max, law.m)
        pk = law.pmf_array(k_max)
        while k_max and pk[k_max] == 0.0:
            k_max -= 1
        pk = pk[: k_max + 1]
        new = pk[0] * p
        for k in range(1, k_max + 1):
            new[i * k:] += pk[k] * p[: n_max + 1 - i * k]
        p = new
        yield i, pk, p


def weighted_sum_pmf(spec: StructureSpec, B: Iterable[int], n_max: int,
                     params: TiltedParams, method: str = "auto") -> PmfVector:
    """Exact (to double precision) pmf of R_B = sum_{i in B} i Z_i on 0..n_max.

    method: "auto" picks the recursion for assemblies and multisets and the
    all-positive truncated convolution for selections.  "recursion" on a
    selection runs the signed divisor recursion and cross-checks it against
    the convolution, raising NumericGuardError beyond 1e-8 (cancellation
    guard).  "convolution" forces the per-index convolution path.
    """
    if n_max < 0:
        raise ParameterDomainError("n_max must be >= 0")
    params.validate(spec)
    B = index_set(B)
    if not B:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return PmfVector(p=p, tail=0.0, n_max=n_max)
    if method == "auto":
        method = "convolution" if spec.kind is Kind.SELECTION else "recursion"
    if method == "convolution":
        return _pmf_by_convolution(spec, B, n_max, params)
    if method != "recursion":
        raise ParameterDomainError(f"unknown method {method!r}")
    if spec.kind is Kind.SELECTION:
        rec = _pmf_by_recursion(spec, B, n_max, params)
        conv = _pmf_by_convolution(spec, B, n_max, params)
        gap = float(np.max(np.abs(rec.p - conv.p)))
        if gap > 1e-8:
            raise NumericGuardError(
                f"selection recursion disagrees with convolution by {gap:.3g}")
        return rec
    return _pmf_by_recursion(spec, B, n_max, params)


# ---------------------------------------------------------------------------
# the conditioning probability and conditional laws
# ---------------------------------------------------------------------------

def prob_T_eq_n(spec: StructureSpec, n: int, params: TiltedParams,
                method: str = "recursion") -> float:
    """P_theta(T_n = n) with T_n = Z_1 + 2 Z_2 + ... + n Z_n.

    method "recursion" reads it off the weighted-sum pmf of the full index
    set; "closed_form" evaluates seed * x^n * p_theta(n) [/ n! for
    assemblies] with p_theta(n) from the exact coefficient recurrences for
    rational theta up to n = EXACT_CUTOFF (beyond that the float p_theta
    table is used, so the routes are only independent at exact-table scale;
    there the recursion reads float log m_i and the table exact m_i).  The
    two must agree; the CLI's prob-t command prints both and their gap.
    """
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    params.validate(spec)
    if method == "recursion":
        return float(weighted_sum_pmf(spec, range(1, n + 1), n, params,
                                      method="auto").p[n])
    if method != "closed_form":
        raise ParameterDomainError(f"unknown method {method!r}")
    lseed = log_seed(spec, range(1, n + 1), params)
    if n <= EXACT_CUTOFF and isinstance(params.theta, (int, Fraction)):
        lp = log_big(ptheta_table(spec, n, params.theta)[n])
    else:
        lp = log_ptheta_table(spec, n, params.theta, x=params.x)[n]
    out = lseed + n * math.log(params.fx) + lp
    if spec.kind is Kind.ASSEMBLY:
        out -= math.lgamma(n + 1)
    return math.exp(out)


def conditioned_R_pmf(spec: StructureSpec, B: Iterable[int], n: int,
                      params: TiltedParams) -> PmfVector:
    """Law of R_B given T_n = n: r -> P(R_B=r) P(S_B=n-r) / P(T_n=n)."""
    B = index_set(B)
    pr = weighted_sum_pmf(spec, B, n, params)
    ps = weighted_sum_pmf(spec, complement(B, n), n, params)
    pt = float(np.dot(pr.p, ps.p[::-1]))
    if pt <= 0.0:
        raise ParameterDomainError("conditioning probability P(T_n = n) is zero")
    p = pr.p * ps.p[::-1] / pt
    return PmfVector(p=p, tail=0.0, n_max=n)


# ---------------------------------------------------------------------------
# joint (count, weight) distribution
# ---------------------------------------------------------------------------

@dataclass
class JointPmf:
    """Joint pmf of (U_B, R_B) = (sum Z_i, sum i Z_i) on a (u, r) grid."""

    p: np.ndarray
    tail: float
    u_max: int
    n_max: int

    def marginal_weight(self) -> PmfVector:
        return PmfVector(p=self.p.sum(axis=0), tail=self.tail, n_max=self.n_max)


def joint_sum_pmf(spec: StructureSpec, B: Iterable[int], n_max: int,
                  u_max: int, params: TiltedParams) -> JointPmf:
    """Sequential 2-d truncated convolution of the per-index laws of (Z_i, i Z_i)."""
    if n_max < 0 or u_max < 0:
        raise ParameterDomainError("truncation bounds must be >= 0")
    params.validate(spec)
    B = index_set(B)
    lm = log_m_array(spec, B[-1] if B else 0)
    M = np.zeros((u_max + 1, n_max + 1))
    M[0, 0] = 1.0
    for i in B:
        if lm[i] == -np.inf:
            continue
        law = z_law(spec, i, params)
        k_max = min(u_max, n_max // i)
        pk = law.pmf_array(k_max)
        new = np.zeros_like(M)
        for k in range(k_max + 1):
            if pk[k] == 0.0:
                continue
            new[k:, i * k:] += pk[k] * M[: u_max + 1 - k, : n_max + 1 - i * k]
        M = new
    total = float(M.sum())
    if total > 1 + 1e-9 or np.any(M < -1e-13):
        raise NumericGuardError("joint pmf mass exceeds 1 or went negative")
    return JointPmf(p=np.where(M < 0, 0.0, M), tail=max(0.0, 1.0 - total),
                    u_max=u_max, n_max=n_max)
