"""Distributions of weighted sums R_B = sum_{i in B} i Z_i under P_theta.

The workhorse is the coefficient recursion k p(k) = sum_i g(i) p(k-i)
obtained by logarithmic differentiation of the probability generating
function: g(i) = theta i lambda_i 1(i in B) for assemblies, a divisor sum
for multisets, and a signed divisor sum for selections.  The divisor sums
are built by array updates over the pairs (k, j) with k j = i <= n_max,
so the float path needs no divisor sieve.  The recursion is a positive
convolution for assemblies and multisets and runs in linear space with a
shared base-2 exponent (values span thousands of orders of magnitude for
large n); an FFT convolution would lose the small entries to rounding.  It
is solved in blocks of up to _BLOCK indices: the terms from earlier blocks
are one correlation, a BLAS dot per index, and the terms within the block
one triangular solve.  The correlation reads only g's nonzero band, the
indices up to the last i with g(i) != 0, so the recursion costs about
n band multiply-adds instead of n^2 / 2.  band is max B for an assembly's
R_B (at most 10 for the tv sets B in 1..10); at the exact-mean x and
n = 16000 it is 285 for the full set of set partitions and 1080 for
polynomials(2)'s R_B with B = {1, 3, 5, 7, 9}, whose g underflows to exact
zeros beyond it.  Every route returns one triple (v, shift, lseed) with
P(R_B = k) = v[k] 2^shift[k] e^lseed: the recursion (q, its per-entry
exponents, log_seed(B)), the convolution (p, 0, 0.0).  The full index
set's triple is kept in one slot per spec, so the recursion route and the
closed form of one (n, x, theta) run one route, and _assemble is the one
place a pmf is made.  The seed P(R_B = 0) = prod_{i in B} P(Z_i = 0) is
a math.fsum over B of indep_process.log_p_zero, the one implementation of
the big-m policy, which the per-index laws of the convolution read too.

A selection takes the convolution below first where it costs fewer
multiply-adds than one banded recursion (the small index sets B of tv).
Otherwise the signed selection recursion runs; it can cancel, and it
certifies itself.  When g >= 0 it is the positive recursion, whose
rounding error is at most about 2 k gamma_n q[k] (gamma_n = n u /
(1 - n u), u = 2^-53).  Otherwise the recursion on |g| gives q_abs >= |q|
(the comparison-matrix argument in _cancellation_bits), and the error is
at most about 2 k gamma_n q_abs[k].
The default route takes the recursion when max q_abs <= C max |q| and
q_abs[n_max] <= C q[n_max], with C = 2^_CANCEL_BITS = 2^10, and otherwise
(or when a weight, the seed or a coefficient leaves double range) a
truncated convolution of the per-index binomial laws.  The convolution is
a strided update of length-(n_max+1) arrays, one index at a time:
p[r] <- sum_k P(Z_i = k) p[r - i k] over k <= min(n_max // i, m_i).  It
costs sum_i n_max min(m_i, n_max / i), which is O(n^2) when every m_i is 0
or 1 and O(n^2 log n) for squarefree polynomials.

Everything is truncated at n_max with the missing mass reported as an
explicit tail.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

from .errors import NumericGuardError, ParameterDomainError
from .structures import (Kind, StructureSpec, _float_log_table, _underflow_error,
                         exact_route, log_big, ptheta_table)
from .indep_process import (Family, TiltedParams, log_factorial_array,
                            log_m_array, log_p_zero_array, overflow_guard,
                            z_law)

_LN2 = math.log(2.0)
_LOG_DBL_MAX = math.log(sys.float_info.max)
_RESCALE = 2.0 ** 512
_RESCALE_INV = 2.0 ** -512
_BLOCK = 128       # indices per block of the coefficient recursion
_BLOCK_BITS = 511  # growth of |q| allowed within one block, in bits
_CANCEL_BITS = 10  # "auto" keeps a selection recursion that cancels by <= 2^10

class IndexSet(tuple):
    """A sorted tuple of distinct indices >= 1, as index_set returns it."""

    __slots__ = ()


def index_set(B: Iterable[int]) -> IndexSet:
    """B as an IndexSet: an IndexSet is returned as it is, and a unit-step
    range is taken in order without a set or a sort."""
    if isinstance(B, IndexSet):
        return B
    if isinstance(B, range) and B.step == 1:
        bs = B
    else:
        bs = sorted(set(int(i) for i in B))
    if bs and bs[0] < 1:
        raise ParameterDomainError("index sets contain integers >= 1 only")
    return IndexSet(bs)


def complement(B: Iterable[int], n: int) -> IndexSet:
    """The indices 1..n that are not in B."""
    B = index_set(B)
    keep = np.ones(n + 1, dtype=bool)
    keep[0] = False
    keep[list(B[: bisect.bisect_right(B, n)])] = False
    return IndexSet(np.flatnonzero(keep).tolist())


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


def _checked_exp(e: np.ndarray) -> np.ndarray:
    """np.exp(e), raising OverflowError where an entry is beyond double range
    (as math.exp does), so that no overflow warning fires."""
    if e.size and float(e.max()) > _LOG_DBL_MAX:
        raise OverflowError("math range error")
    return np.exp(e)


def _active_indices(spec: StructureSpec, B: IndexSet,
                    n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(ks, log m_k) for the k in B with k <= n_max and m_k != 0."""
    lm = log_m_array(spec, n_max)
    ks = np.asarray(B[: bisect.bisect_right(B, n_max)], dtype=np.int64)
    lmk = lm[ks]
    keep = lmk != -np.inf
    return ks[keep], lmk[keep]


@overflow_guard("a Poisson mean theta m_i x^i / i!")
def log_seed(spec: StructureSpec, B: Iterable[int], params: TiltedParams) -> float:
    """log P(R_B = 0) for the all-zero configuration: the recursion seed.

    Assemblies exp(-sum theta lambda_i); multisets prod (1-theta x^i)^{m_i};
    selections prod (1+theta x^i)^{-m_i}.  The terms log P(Z_i = 0) are the
    request's log_p_zero_array, the one implementation of the big-m policy
    that the per-index laws read too.  The sum is math.fsum: a running sum
    of n terms would add up to n roundings of the total (2.4e-13 in the log
    at n = 2000 for distinct partitions, where the seed is e^-40).
    """
    params.validate(spec)
    B = index_set(B)
    if not B:
        return 0.0
    terms = log_p_zero_array(spec, B[-1], params)[np.asarray(B)]
    if spec.kind is Kind.ASSEMBLY and np.any(terms == -np.inf):
        raise OverflowError("math range error")
    return math.fsum(terms.tolist())


@overflow_guard("a recursion weight g(i)")
def _g_array(spec: StructureSpec, B: IndexSet, n_max: int,
             params: TiltedParams, signed: bool = False) -> np.ndarray:
    """g[i], i = 0..n_max, for the coefficient recursion.

    Assemblies: g(i) = theta i lambda_i for i in B.  Multisets and
    selections: g(i) is the sum over the pairs (k, j) with k j = i, k in B
    and m_k != 0 of k m_k theta^j x^i, negated for even j when signed.  An
    index k <= r = isqrt(n_max) adds its n_max // k multiples in one strided
    update; the indices k > r have j <= n_max // (r + 1) and are added one j
    at a time, so every temporary has length O(n_max).
    """
    lth, lx = math.log(params.ftheta), math.log(params.fx)
    g = np.zeros(n_max + 1)
    ks, lm = _active_indices(spec, B, n_max)
    if spec.kind is Kind.ASSEMBLY:
        g[ks] = _checked_exp(lth + lm + ks * lx
                             - log_factorial_array(spec, n_max)[ks] + np.log(ks))
        return g
    lk = np.log(ks) + lm
    r = math.isqrt(n_max)
    split = int(np.searchsorted(ks, r, side="right"))
    with np.errstate(over="ignore"):  # a sum beyond double range is caught below
        for k, lkk in zip(ks[:split].tolist(), lk[:split].tolist()):
            j = np.arange(1, n_max // k + 1)
            terms = _checked_exp(lkk + j * lth + (k * j) * lx)
            if signed:
                terms[1::2] *= -1.0
            g[k::k] += terms
        ks, lk = ks[split:], lk[split:]
        for j in range(1, n_max // (r + 1) + 1):
            cut = int(np.searchsorted(ks, n_max // j, side="right"))
            kj = ks[:cut] * j
            terms = _checked_exp(lk[:cut] + j * lth + kj * lx)
            if signed and j % 2 == 0:
                g[kj] -= terms
            else:
                g[kj] += terms
    if not np.all(np.isfinite(g)):
        raise OverflowError("math range error")
    return g


def _recursion_coeffs(g: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """q with q[0] = 1, k q[k] = sum_i g[i] q[k-i], as (v, shift) with
    q[k] = v[k] 2^shift[k].

    Blocks of up to _BLOCK indices k0..k1-1 are solved at once.  The terms
    with k - i < k0 are one correlation of q[lo:k0] with the reversed g's
    grev[n_max-k1+1+lo:n_max] (a BLAS dot per k).  With band the last index
    where g != 0, every q[j] with j < k0 - band meets only exact zeros of g,
    so lo = max(0, k0 - band) rounded down to a multiple of 64 skips nothing
    else; the dots cost about n_max band multiply-adds in all instead of
    n_max^2 / 2.  band is at least 1, so a dot is never empty (an all-zero
    g gives q = e_0), and the multiple of 64 lets a BLAS kernel of up to 64
    lanes group the products that remain as it did on all of q[:k0].  With
    a single-threaded BLAS q is then bitwise the same as without the band;
    a threaded BLAS splits a long dot across threads (OpenBLAS past about
    10^4 entries) but not the short banded one, so there the last bits can
    differ, within the same error bound.  The rest is forward
    substitution with the lower-triangular block whose diagonal is k and
    whose entries below it are -g[k-j], so both parts add the same positive
    sums as the one-step loop.  A block ends early where the bound
    M_k <= max(1, sum_{i<=k} |g_i| / k) M_{k-1} on the running maximum
    M_k = max_{j<=k} |q[j]| allows growth past 2^_BLOCK_BITS / n_max within
    it (the 1/n_max leaves room for the sums k q[k]); a block of one index
    is the one-step loop.  The working q is rescaled by 2^-512 after any
    block whose maximum passes 2^512, so no finite q overflows.  An entry
    that a rescale would take below the smallest normal double keeps its
    value and exponent from before that rescale in (v, shift); every other
    entry is the working q at the last exponent.  The working q, and so
    every entry that stays normal, does not depend on the kept ones.
    """
    q = np.zeros(n_max + 1)
    q[0] = 1.0
    v = np.zeros(n_max + 1)
    kept = np.full(n_max + 1, -1)  # the exponent an entry was kept at, or -1
    grev = g[::-1].copy()
    nonzero = np.flatnonzero(g[1:n_max + 1])
    band = max(1, int(nonzero[-1]) + 1 if nonzero.size else 0)
    b = min(_BLOCK, n_max)
    lower = toeplitz(np.concatenate(([0.0], -g[1:b])), np.zeros(b))
    room = _BLOCK_BITS - n_max.bit_length()
    shift = 0
    running_max = 1.0
    k0 = 1
    with np.errstate(over="ignore", invalid="ignore"):  # the guard below
        growth = np.log2(np.maximum(
            1.0, np.cumsum(np.abs(g[1:])) / np.arange(1, n_max + 1)))
        bits = np.concatenate(([0.0], np.cumsum(growth)))  # bits[k]: 1..k
        while k0 <= n_max:
            k1 = int(np.searchsorted(bits, bits[k0 - 1] + room, side="right"))
            k1 = max(k0 + 1, min(k1, k0 + b, n_max + 1))
            lo = max(0, k0 - band) & -64
            r = np.correlate(grev[n_max - k1 + 1 + lo:n_max], q[lo:k0],
                             "valid")[::-1]
            lower.flat[::b + 1] = np.arange(k0, k0 + b)
            q[k0:k1] = solve_triangular(lower[:k1 - k0, :k1 - k0], r,
                                        lower=True, check_finite=False)
            block_max = float(np.max(np.abs(q[k0:k1])))
            if block_max > running_max:
                running_max = block_max
                if running_max > _RESCALE:
                    low = (kept[:k1] < 0) & (
                        np.abs(q[:k1]) < sys.float_info.min * _RESCALE)
                    v[:k1][low] = q[:k1][low]
                    kept[:k1][low] = shift
                    q[:k1] *= _RESCALE_INV
                    running_max *= _RESCALE_INV
                    shift += 512
            k0 = k1
    if not np.all(np.isfinite(q)):
        raise NumericGuardError("weighted-sum recursion overflowed")
    live = kept < 0
    return np.where(live, q, v), np.where(live, shift, kept)


def _assemble(v: np.ndarray, shift: np.ndarray | int, lseed: float) -> PmfVector:
    """The pmf p[k] = v[k] 2^shift[k] e^lseed of a route's triple: the one
    place a pmf is made.  An entry below the smallest normal double reads 0:
    it is not a probability this library reports, so the guards on
    P(T_n = n) see it as underflowed.  The convolution's triple (p, 0, 0.0)
    is p as it is; a recursion's is formed in base 2 without intermediate
    under/overflow."""
    p = v
    if lseed or np.any(shift):
        with np.errstate(divide="ignore"):
            p = np.exp2(np.log2(v) + shift + lseed / _LN2)
    p = np.where(p < sys.float_info.min, 0.0, p)
    return PmfVector(p=p, tail=max(0.0, 1.0 - float(p.sum())), n_max=len(p) - 1)


def _log_coeff_table(spec: StructureSpec, n: int, params: TiltedParams) -> np.ndarray:
    """Natural logs of the full-set coefficients x^k p_theta(k) [/k!], k <= n.

    log v + shift log 2 + lseed - log_seed(1..n) off the request's one
    full-set triple (_weighted_sum): the recursion's lseed is that seed, so
    its table is log q + shift log 2, and the convolution's (p, 0, 0.0)
    gives log P(T_n = k) - log_seed.  One guard for every route: an entry v
    below the smallest normal double at a weight k that some structure has
    lost its digits.  Entry n, which every reader reads, raises the
    underflow NumericGuardError, and an entry k < n reads NaN, which
    structures.log_ptheta_table turns into that error for the readers of
    the whole table.  A true zero (no structure of weight k) is -inf, as is
    the cancellation dust a certified selection recursion clamps to 0.
    """
    params.validate(spec)
    full = index_set(range(1, n + 1))
    v, shift, lseed = _weighted_sum(spec, full, n, params)
    with np.errstate(divide="ignore"):
        out = np.log(v) + shift * _LN2 + (lseed - log_seed(spec, full, params))
    low = np.flatnonzero(v < sys.float_info.min)
    if low.size:
        low = low[_reach(spec, int(low[-1]))[low]]
        if low.size and low[-1] == n:
            raise _underflow_error(n)
        out[low] = np.nan
    return out


def _cancellation_bits(g: np.ndarray, q: np.ndarray, shift: np.ndarray,
                       n_max: int) -> float:
    """log2 of the cancellation ratio of the signed recursion's
    q = q_g = v 2^shift (_recursion_coeffs).

    With T = diag(k) - Toeplitz(g) and M = diag(k) - Toeplitz(|g|), M is the
    comparison matrix of T, so |T^-1| <= M^-1 entrywise and q_abs = q_|g|
    bounds |q| and the rounding error alike: |q^_k - q_k| <~ 2 k gamma_n
    q_abs[k], the positive recursion's bound with q_abs in place of q.  The
    ratio is the larger of max q_abs / max |q| and q_abs[n_max] / q[n_max]
    (infinite where q[n_max] <= 0 < q_abs[n_max]), each entry read with its
    own exponent; it is 1 (0 bits) when g >= 0, and then q_abs is not
    computed.
    """
    if not np.any(g < 0):
        return 0.0
    q_abs, shift_abs = _recursion_coeffs(np.abs(g), n_max)
    i, j = int(np.argmax(q_abs)), int(np.argmax(np.abs(q)))
    gap = math.log2(q_abs[i]) - math.log2(abs(q[j])) + int(shift_abs[i] - shift[j])
    if q_abs[n_max] > 0:
        if q[n_max] <= 0:
            return math.inf
        gap = max(gap, math.log2(q_abs[n_max]) - math.log2(q[n_max])
                  + int(shift_abs[n_max] - shift[n_max]))
    return gap


def _pmf_by_recursion(spec: StructureSpec, B: IndexSet, n_max: int,
                      params: TiltedParams, certify: bool = False,
                      g: Optional[np.ndarray] = None) -> tuple:
    """The coefficient recursion's triple (q, shift, log_seed(B)); g is
    built here unless the caller has it.  With certify, a selection whose
    cancellation ratio passes 2^_CANCEL_BITS raises NumericGuardError."""
    if g is None:
        g = _g_array(spec, B, n_max, params, signed=spec.kind is Kind.SELECTION)
    q, shift = _recursion_coeffs(g, n_max)
    if spec.kind is Kind.SELECTION:
        if certify:
            bits = _cancellation_bits(g, q, shift, n_max)
            if bits > _CANCEL_BITS:
                raise NumericGuardError(
                    f"signed selection recursion cancels by 2^{bits:.3g}")
        # exact zeros come out as cancellation dust; clamp it, flag the rest
        # (a kept entry is below 2^-510, the largest |q| at least 1)
        scale = float(np.max(np.abs(q))) or 1.0
        if np.any(q < -1e-11 * scale):
            raise NumericGuardError(
                "signed selection recursion produced negative mass (cancellation)")
        q = np.where(q < 0, 0.0, q)
    return q, shift, log_seed(spec, B, params)


def _pmf_by_convolution(spec: StructureSpec, B: IndexSet, n_max: int,
                        params: TiltedParams) -> tuple:
    """The convolution's triple (p, 0, 0.0): p is the last prefix pmf."""
    for _i, _pk, p in prefix_pmfs(spec, B, n_max, params):
        pass
    return p, 0, 0.0


def prefix_pmfs(spec: StructureSpec, B: IndexSet, n_max: int,
                params: TiltedParams):
    """Yields (i, pk, p) for each i in B, in order: pk[k] = P(Z_i = k) for
    k <= min(n_max // i, m_i), without the trailing entries that underflow
    to 0, and p the pmf of sum_{j in B, j <= i} j Z_j on 0..n_max.

    One strided update per index, p[r] <- sum_k pk[k] p[r - i k]; an index
    with m_i = 0 has pk = [1] and leaves p as it was.
    """
    lm = log_m_array(spec, B[-1])
    log_p_zero_array(spec, B[-1], params)  # one fill for the z_law calls
    p = np.zeros(n_max + 1)
    p[0] = 1.0
    for i in B:
        if lm[i] == -np.inf:
            yield i, np.ones(1), p
            continue
        law = z_law(spec, i, params)
        k_max = n_max // i
        if law.family is Family.BINOMIAL:
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


def _selection_recursion_g(spec: StructureSpec, B: IndexSet, n_max: int,
                           params: TiltedParams) -> Optional[np.ndarray]:
    """g of the signed selection recursion of R_B, or None where the
    convolution costs fewer multiply-adds: its strided updates do
    sum_{i in B} n_max min(m_i, n_max // i), the banded recursion
    sum_{k <= n_max} min(k, band), band the last index with g != 0.  The
    recursion is counted once although the certificate runs it on |g| too
    when g has a negative entry: the convolution also builds a law and a
    pmf per index, which the count does not see (on the complement of 5
    indices of distinct_partitions at n = 2000 it took 42 ms, both
    recursions 10 ms)."""
    ks, lm = _active_indices(spec, B, n_max)
    with np.errstate(over="ignore"):  # m_i beyond double range
        conv = n_max * float(np.sum(np.minimum(np.exp(lm), n_max // ks)))
    g = _g_array(spec, B, n_max, params, signed=True)
    nonzero = np.flatnonzero(g[1:])
    band = int(nonzero[-1]) + 1 if nonzero.size else 1
    rec = band * (band + 1) // 2 + (n_max - band) * band
    return None if conv < rec else g


def _auto_selection_pmf(spec: StructureSpec, B: IndexSet, n_max: int,
                        params: TiltedParams) -> tuple[tuple, bool]:
    """(triple, by_recursion): the "auto" route of a selection (see
    weighted_sum_pmf) and whether it kept the certified recursion."""
    try:
        g = _selection_recursion_g(spec, B, n_max, params)
        if g is not None:
            return _pmf_by_recursion(spec, B, n_max, params, certify=True,
                                     g=g), True
    except NumericGuardError:
        pass  # cancellation past 2^_CANCEL_BITS, or a weight, seed or
              # coefficient beyond double range
    return _pmf_by_convolution(spec, B, n_max, params), False


def _weighted_sum(spec: StructureSpec, B: IndexSet, n_max: int,
                  params: TiltedParams) -> tuple:
    """The triple (v, shift, lseed) of R_B on the "auto" route, with
    P(R_B = k) = v[k] 2^shift[k] e^lseed: the recursion for assemblies and
    multisets, _auto_selection_pmf for selections.  The triple of
    B = 1..n_max is kept, read-only, in the one slot
    spec._table_cache["full_set"] keyed by (n_max, x, theta), so prob-t's
    two columns, pofn and the moments read one route and memory stays
    O(n_max).  An index set past n_max is not kept: its seed differs."""
    def build():
        if spec.kind is Kind.SELECTION:
            return _auto_selection_pmf(spec, B, n_max, params)[0]
        return _pmf_by_recursion(spec, B, n_max, params)
    if not bisect.bisect_right(B, n_max) == len(B) == n_max:  # B = 1..n_max
        return build()
    key = (n_max, params.fx, params.ftheta)
    hit = spec._table_cache.get("full_set")
    if hit is None or hit[0] != key:
        hit = (key, build())
        for arr in hit[1][:2]:
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        spec._table_cache["full_set"] = hit
    return hit[1]


def weighted_sum_pmf(spec: StructureSpec, B: Iterable[int], n_max: int,
                     params: TiltedParams, method: str = "auto") -> PmfVector:
    """Exact (to double precision) pmf of R_B = sum_{i in B} i Z_i on 0..n_max.

    method: "auto" picks the recursion for assemblies and multisets.  For
    selections it takes the all-positive truncated convolution where that
    costs fewer multiply-adds (_selection_recursion_g); otherwise it runs
    the signed divisor recursion and keeps it when its cancellation ratio
    (_cancellation_bits) is at most 2^_CANCEL_BITS = 2^10, so that its
    error is at most about 2 n gamma_n 2^10 times max |q| normwise and
    relative at n_max, and falls back to the convolution otherwise or on a
    NumericGuardError.  "convolution" forces the per-index convolution.
    Either way an entry below the smallest normal double reads 0
    (_assemble).
    """
    if n_max < 0:
        raise ParameterDomainError("n_max must be >= 0")
    if method not in ("auto", "convolution"):
        raise ParameterDomainError(f"unknown method {method!r}")
    params.validate(spec)
    B = index_set(B)
    if not B:
        return _assemble(np.eye(1, n_max + 1)[0], 0, 0.0)
    if method == "convolution":
        return _assemble(*_pmf_by_convolution(spec, B, n_max, params))
    return _assemble(*_weighted_sum(spec, B, n_max, params))


# ---------------------------------------------------------------------------
# the conditioning probability and conditional laws
# ---------------------------------------------------------------------------

def prob_T_eq_n(spec: StructureSpec, n: int, params: TiltedParams,
                method: str = "recursion") -> float:
    """P_theta(T_n = n) with T_n = Z_1 + 2 Z_2 + ... + n Z_n.

    method "recursion" reads it off the weighted-sum pmf of the full index
    set; "closed_form" evaluates seed * x^n * p_theta(n) [/ n! for
    assemblies] with p_theta(n) from the exact coefficient recurrences
    where structures.exact_route holds, where the recursion reads float
    log m_i and the table exact m_i.  Beyond that it is entry n of the
    float p_theta table, which reads the same cached full-set triple as
    the "recursion" route, so there the gap the CLI's prob-t command prints
    between the two checks only the log-domain inversion, not the
    recursion or the seed.  On either route a value below the smallest
    normal double raises the underflow NumericGuardError where structures
    of weight n exist.
    """
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    params.validate(spec)
    if method == "recursion":
        out = float(weighted_sum_pmf(spec, range(1, n + 1), n, params).p[n])
    elif method == "closed_form":
        lseed = log_seed(spec, range(1, n + 1), params)
        if exact_route(n, params.theta):
            lp = log_big(ptheta_table(spec, n, params.theta)[n])
        else:
            lp = float(_float_log_table(spec, n, params.theta, params.x)[n])
        lout = lseed + n * math.log(params.fx) + lp
        if spec.kind is Kind.ASSEMBLY:
            lout -= math.lgamma(n + 1)
        out = math.exp(lout)
    else:
        raise ParameterDomainError(f"unknown method {method!r}")
    if out < sys.float_info.min and has_weight(spec, n):
        raise _underflow_error(n)
    return out


def has_weight(spec: StructureSpec, n: int) -> bool:
    """Whether some structure has weight n, i.e. p(n) > 0.  Only asked when
    P(T_n = n) came out below the smallest normal double."""
    return bool(_reach(spec, n)[n])


def _reach(spec: StructureSpec, n: int) -> np.ndarray:
    """reach[k] for k = 0..n: whether some structure has weight k.  A
    boolean strided update marks the weights sum_i i Z_i can reach with
    Z_i <= m_i.  Once an index i with Z_i unbounded within 0..n is in,
    reach is closed under adding i, so its multiples are skipped."""
    lm = log_m_array(spec, n)
    idle = lm == -np.inf  # indices that add no new weight
    reach = np.zeros(n + 1, dtype=bool)
    reach[0] = True
    for i in range(1, n + 1):
        if idle[i]:
            continue
        if spec.kind is Kind.SELECTION and lm[i] < math.log(n // i):
            # Z_i <= m_i < n // i
            new = reach.copy()
            for k in range(1, min(n // i, int(spec.m(i))) + 1):
                new[i * k:] |= reach[: n + 1 - i * k]
            reach = new
        else:
            # Z_i unbounded within 0..n: a running OR along each residue
            # class mod i
            rows = -(-(n + 1) // i)
            grid = np.zeros(rows * i, dtype=bool)
            grid[: n + 1] = reach
            reach = np.logical_or.accumulate(grid.reshape(rows, i), axis=0
                                             ).ravel()[: n + 1]
            idle[i::i] = True
    return reach


def conditioned_block(spec: StructureSpec, B: Iterable[int], n: int,
                      params: TiltedParams) -> tuple[PmfVector, PmfVector, float]:
    """(P_R, P_S, P(T_n = n)): the pmfs of R_B and of S_B = R_{B^c} on
    0..n and their convolution at n.  A P(T_n = n) below the smallest
    normal double is a numeric guard when structures of weight n exist (it
    underflowed), and a zero one a domain error when none do."""
    B = index_set(B)
    pr = weighted_sum_pmf(spec, B, n, params)
    ps = weighted_sum_pmf(spec, complement(B, n), n, params)
    pt = float(np.dot(pr.p, ps.p[::-1]))
    if pt < sys.float_info.min and has_weight(spec, n):
        raise _underflow_error(n)
    if pt <= 0.0:
        raise ParameterDomainError("conditioning probability P(T_n = n) is "
                                   f"zero: no structures of weight {n}")
    return pr, ps, pt


def conditioned_R_pmf(spec: StructureSpec, B: Iterable[int], n: int,
                      params: TiltedParams) -> PmfVector:
    """Law of R_B given T_n = n: r -> P(R_B=r) P(S_B=n-r) / P(T_n=n)."""
    pr, ps, pt = conditioned_block(spec, B, n, params)
    return PmfVector(p=pr.p * ps.p[::-1] / pt, tail=0.0, n_max=n)


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
