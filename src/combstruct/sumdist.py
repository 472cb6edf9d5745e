"""Distributions of weighted sums R_B = sum_{i in B} i Z_i under P_theta.

The workhorse is the coefficient recursion k p(k) = sum_i g(i) p(k-i)
obtained by logarithmic differentiation of the probability generating
function: g(i) = theta i w_i x^i 1(i in B) for assemblies, a divisor sum
of theta^j k w_k x^i over k j = i, k in B for multisets, and a signed one
for selections, with w_k the per-kind weight of indep_process.log_m_array
(m_k / k! for an assembly, m_k otherwise).  The divisor sums
are built by array updates over the pairs (k, j) with k j = i <= n_max,
so the float path needs no divisor sieve.  The recursion is a positive
convolution for assemblies and multisets and runs in linear space with a
shared base-2 exponent (values span thousands of orders of magnitude for
large n); an FFT convolution would lose the small entries to rounding.  It
is solved in blocks of up to _BLOCK indices: the terms from earlier blocks
are one correlation, a BLAS dot per index, and the terms within the block
one triangular solve in place (LAPACK dtrtrs, bound with ctypes in the
OpenBLAS that numpy has loaded, so scipy is not imported; scipy's dtrtrs
where that library has no ILP64 dtrtrs).  The correlation reads only a short
band beta of g, so the recursion costs about n beta multiply-adds instead
of n^2 / 2: beta is the last i with g(i) != 0, or shorter where a
nonnegative g has a certified tail past it (_tail_model).  A zero tail,
negligible against the kept terms, is checked block by block; a geometric
tail c rho^i, as g(i) -> theta kappa (x y)^i in the logarithmic class
(polynomials over a finite field, whose g(i) is (q x)^i), is one running
sum W extended once per block.  Every route returns one triple
(v, shift, lseed) with P(R_B = k) = v[k] 2^shift[k] e^lseed: the
recursion (q, its per-entry exponents, log_seed(B)), the convolution
(p, 0, 0.0).  The full index set's triple and its seed are kept in one
slot per spec, so the recursion route and the closed form of one
(n, x, theta) run one route and one seed; _assemble is the one place a
pmf is made, and _float_log_table, which reads that slot, the one float
p_theta table.  The seed P(R_B = 0) = prod_{i in B} P(Z_i = 0) is a
math.fsum over B of indep_process.log_p_zero, the one implementation of
the big-m policy, which the rows of the convolution read too.

A selection takes the convolution below first where it costs fewer
multiply-adds than one banded recursion (the small index sets B of tv).
Otherwise the signed selection recursion runs; it can cancel, and it
certifies itself (_cancellation_bits): the default route keeps it when
its cancellation ratio is at most 2^_CANCEL_BITS = 2^10, and otherwise
(or when a weight, the seed or a coefficient leaves double range) takes
a truncated convolution of the per-index binomial laws.  The convolution
is a strided update of length-(n_max+1) arrays, one index at a time:
p[r] <- sum_k P(Z_i = k) p[r - i k] over k <= min(n_max // i, m_i), with
the rows P(Z_i = k) of all of B from one indep_process.z_pmf_rows call.
It costs sum_i n_max min(m_i, n_max / i), which is O(n^2) when every m_i
is 0 or 1 and O(n^2 log n) for squarefree polynomials.

Everything is truncated at n_max with the missing mass reported as an
explicit tail.
"""

from __future__ import annotations

import bisect
import ctypes
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericGuardError, ParameterDomainError, underflow_error
from .structures import (Kind, Numeric, StructureSpec, exact_route, log_big,
                         ptheta_table)
from .indep_process import (TiltedParams, XStrategy, choose_x,
                            log_factorial_array, log_m_array,
                            log_p_zero_array, overflow_guard, z_pmf_rows)

_LN2 = math.log(2.0)
_LOG_DBL_MAX = math.log(sys.float_info.max)
_RESCALE = 2.0 ** 512
_RESCALE_INV = 2.0 ** -512
_BLOCK = 128       # indices per block of the coefficient recursion
_BLOCK_BITS = 511  # growth of |q| allowed within one block, in bits
_CANCEL_BITS = 10  # "auto" keeps a selection recursion that cancels by <= 2^10
_TAIL_MIN_BAND = 4 * _BLOCK  # shorter bands of g are read whole
_TAIL_TOL = 1e-12  # a geometric tail model holds g_i within this, relative


def _numpy_dtrtrs():
    """LAPACK dtrtrs in the library numpy.linalg loaded, bound with ctypes,
    or None where it has no ILP64 dtrtrs.

    On Linux and macOS, dlsym on the handle of numpy.linalg._umath_linalg
    also searches the libraries it links: the OpenBLAS of the numpy wheels
    exports dtrtrs as scipy_dtrtrs_64_.  Only the ILP64 names are taken,
    since their suffix fixes the integer width; elsewhere (Windows,
    Accelerate, MKL) the block solve imports scipy's dtrtrs instead.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for name in ("scipy_dtrtrs_64_", "dtrtrs_64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            # UPLO, TRANS, DIAG, &N, &NRHS, A, &LDA, B, &LDB, &INFO
            fn.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 7
            fn.restype = None
            return fn
    return None


_DTRTRS = _numpy_dtrtrs()  # None: scipy.linalg.lapack.dtrtrs


class _BlockSolve:
    """Solves lower[:m, :m] y = q[k0:k0+m] in place in q and returns
    LAPACK's info (> 0: a zero on the diagonal), for the m x m leading
    block of the b x b C-ordered lower-triangular matrix that bind() last
    took.  Both routes call dtrtrs on the Fortran view lower.T (upper,
    transposed), as scipy's solve_triangular does: _DTRTRS where numpy's
    LAPACK has it, else scipy's.  The ctypes route binds every address
    once, q's base here and lower's in bind(), with N, NRHS, LDA, LDB and
    INFO in one int64 block, so a call costs no more than scipy's."""

    def __init__(self, q: np.ndarray, b: int):
        if q.dtype != np.float64 or not q.flags.c_contiguous or b < 1:
            raise ValueError("q must be a contiguous float64 array, b >= 1")
        self.q, self.b, self.lower = q, b, None
        self._dtrtrs = _DTRTRS
        if self._dtrtrs is None:
            from scipy.linalg.lapack import dtrtrs
            self._scipy_dtrtrs = dtrtrs
            return
        self._ints = np.array([0, 1, b, b, 0], dtype=np.int64)
        self._n, self._nrhs, self._lda, self._ldb, self._info = (
            self._ints.ctypes.data + 8 * i for i in range(5))
        self._q = q.ctypes.data

    def bind(self, lower: np.ndarray) -> None:
        if (lower.dtype != np.float64 or not lower.flags.c_contiguous
                or lower.shape != (self.b, self.b)):
            raise ValueError("lower must be a contiguous b x b float64 array")
        self.lower = lower
        self._a = lower.ctypes.data

    def __call__(self, k0: int, m: int) -> int:
        if not (0 < m <= self.b and 0 <= k0 and k0 + m <= len(self.q)):
            raise ValueError("block outside q or larger than b")
        if self._dtrtrs is None:
            self.q[k0:k0 + m], info = self._scipy_dtrtrs(
                self.lower[:m, :m].T, self.q[k0:k0 + m], lower=0, trans=1)
            return info
        self._ints[0] = m
        self._dtrtrs(b"U", b"T", b"N", self._n, self._nrhs, self._a,
                     self._lda, self._q + 8 * k0, self._ldb, self._info)
        return int(self._ints[4])


def _aligned_zeros(n: int) -> np.ndarray:
    """n zeros starting on a 64-byte boundary."""
    buf = np.zeros(n + 7)
    off = (-buf.ctypes.data % 64) // 8
    return buf[off:off + n]


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
    """pmf values on 0..n_max plus the explicit mass above n_max, with
    n_max = len(p) - 1."""

    p: np.ndarray
    tail: float

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

    @property
    def n_max(self) -> int:
        return len(self.p) - 1

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
    """(ks, log w_k) for the k in B with k <= n_max and m_k != 0, w_k the
    log_m_array weight."""
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
             params: TiltedParams) -> np.ndarray:
    """g[i], i = 0..n_max, for the coefficient recursion.

    With w_k the log_m_array weight (m_k / k! for an assembly, m_k
    otherwise), g(i) is the sum over the pairs (k, j) with k j = i, k in B
    and m_k != 0 of k w_k theta^j x^i, negated for even j for a selection
    (the signed recursion), and for an assembly its j = 1 term, theta i
    w_i x^i = theta i lambda_i.  An index k <= r = isqrt(n_max) adds its
    n_max // k multiples in one strided update; the indices k > r have
    j <= n_max // (r + 1) and are added one j at a time, so every
    temporary has length O(n_max).
    """
    lth, lx = math.log(params.ftheta), math.log(params.fx)
    g = np.zeros(n_max + 1)
    ks, lm = _active_indices(spec, B, n_max)
    lk = np.log(ks) + lm
    if spec.kind is Kind.ASSEMBLY:
        g[ks] = _checked_exp(lk + lth + ks * lx)
        return g
    signed = spec.kind is Kind.SELECTION
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


def _median(y: np.ndarray) -> float:
    """np.median of a nonempty float array without NaNs, bit for bit (the
    middle entry, or the mean (a + b) / 2 of the two middle ones), without
    np.median's first call importing numpy.ma, about 15 ms."""
    k = len(y) // 2
    if len(y) % 2:
        return float(np.partition(y, k)[k])
    a, b = np.partition(y, (k - 1, k))[k - 1:k + 1]
    return float((a + b) / 2.0)


def _tail_model(g: np.ndarray, n_max: int, band: int) -> tuple[int, float, float]:
    """(beta, c, rho): the short band beta and the tail model g'_i = c rho^i
    that _recursion_coeffs puts in place of g_i for i > beta, with g >= 0.

    The zero tail (c = 0) takes the smallest beta with sum_{i>beta} g_i <=
    2^-60 sum_{i<=beta} g_i.  Where q is non-decreasing, every q[k-i] with
    i <= beta is at least q[k-beta-1], so that bounds the omitted terms of
    every k q_k by 2^-60 of the kept ones; the recursion certifies each
    block against the q it computed, not against this estimate.

    The geometric tail (c > 0, only where g reaches n_max) fits log g_i on
    the far half i > n_max / 2: rho from the least-squares slope, then
    log c the median of log g_i - i log rho, which a few entries off by
    g's own rounding do not move.  Its beta is the last i where
    |g_i - c rho^i| > _TAIL_TOL g_i, with c rho^i the doubles that the
    correlations and the block read (the running sum past them adds a
    rounding or two per block), so the model holds on all of (beta, n_max].

    The shorter beta wins; it is returned only where it saves at least a
    block's width of every dot, else (band, 0.0, 1.0): the full band, no
    model.
    """
    gb = g[1:band + 1]
    kept = np.cumsum(gb)
    kept *= 2.0 ** -60
    # ok[beta - 1]: sum_{i>beta} g_i <= 2^-60 sum_{i<=beta} g_i, beta < band
    ok = np.cumsum(gb[::-1])[::-1][1:] <= kept[:-1]
    beta = int(np.argmax(ok)) + 1 if ok.any() else band
    c, rho = 0.0, 1.0
    half = n_max // 2
    if band == n_max and np.all(gb[half:] > 0):
        i = np.arange(1, n_max + 1)
        t, y = i[half:] - (half + 1 + n_max) / 2, np.log(gb[half:])
        rho = math.exp(float(np.dot(t, y) / np.dot(t, t)))
        y -= i[half:] * math.log(rho)
        c = math.exp(_median(y))
        off = rho ** i  # |g_i - c rho^i|, in place
        off *= c
        off -= gb
        np.abs(off, out=off)
        off = np.flatnonzero(off > _TAIL_TOL * gb)
        geo = int(off[-1]) + 1 if off.size else 1
        if geo < beta:
            beta = geo
        else:
            c, rho = 0.0, 1.0
    if beta + _BLOCK >= band:
        return band, 0.0, 1.0
    return beta, c, rho


def _band_arrays(g: np.ndarray, n_max: int, b: int, beta: int, c: float,
                 rho: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(span, grev, lower) of g' = g up to beta and c rho^i past it: grev =
    g'[span::-1] for the correlations, which read g' at indices up to
    beta + 63 + b <= span, and the b x b block lower[i, j] = -g'[i - j]
    below the diagonal, 0 above."""
    span = min(n_max, beta + 63 + b)
    gp = g[:span + 1].copy()
    gp[beta + 1:] = c * rho ** np.arange(beta + 1, span + 1)
    # row i of lower is the window of b entries at b - 1 - i in
    # [-g'[b-1], ..., -g'[1], 0, ..., 0]
    lower = sliding_window_view(np.concatenate((-gp[b - 1:0:-1], np.zeros(b))),
                                b)[::-1].copy()
    return span, gp[::-1].copy(), lower


def _recursion_coeffs(g: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """q with q[0] = 1, k q[k] = sum_i g[i] q[k-i], as (v, shift) with
    q[k] = v[k] 2^shift[k].

    Blocks of up to _BLOCK indices k0..k1-1 are solved at once, on g' = g
    up to a band beta and a certified tail model g'_i = c rho^i past it
    (_tail_model).  With band the last index where g != 0, beta = band and
    c = 0 is g' = g, the recursion as it reads g: the default, and always
    so for signed g and for bands up to _TAIL_MIN_BAND.  The terms with
    k - i < k0 are one correlation of q[lo:k0] with the reversed g'
    (a BLAS dot per k), plus the far tail rho^(k-lo) W_lo.  Every q[j]
    with j < k0 - beta meets only g'_i = c rho^i, so lo = max(0, k0 - beta)
    rounded down to a multiple of 64 leaves out of the dot only terms
    that W_lo = sum_{j<lo} c rho^(lo-j) q[j] holds: one positive running
    sum, extended once per block by a short dot (W_{m+1} = rho (W_m +
    c q_m)) and rescaled with q.  The dots cost about n_max beta
    multiply-adds in all instead of n_max^2 / 2.  beta is at least 1, so a
    dot is never empty (an all-zero g gives q = e_0), and the multiple of
    64 lets a BLAS kernel of up to 64 lanes group the products that remain
    as it did on all of q[:k0].  With a single-threaded BLAS q is then
    bitwise the same as without the band; a threaded BLAS splits a long
    dot across threads (OpenBLAS past about 10^4 entries) but not the
    short banded one, so there the last bits can differ, within the same
    error bound.  The rest is forward substitution with the
    lower-triangular block whose diagonal is k and whose entries below it
    are -g'[k-j], so both parts add the same positive sums as the one-step
    loop on g'.  The correlation is written into q[k0:k1] and solved there
    in place by LAPACK dtrtrs (_BlockSolve: the dtrtrs of numpy's
    OpenBLAS, else scipy's, the call scipy's solve_triangular makes; the
    two agree bit for bit).  q starts on a 64-byte boundary, so every
    window q[lo:k0] a correlation reads is too: on a 2-vCPU Xeon a
    128 x 4600 correlation took 137-140 us aligned and 173-182 us at the
    other offsets mod 64 that numpy's 16-byte-aligned buffers take.

    The two tails are certified apart.  The geometric one holds g'_i within
    _TAIL_TOL g_i for every i > beta, and a weight-k structure has at most
    k / (beta + 1) parts past beta, so q moves by at most that many
    _TAIL_TOL relative.  The zero tail is checked per block: the omitted
    part of k q[k] is at most (sum_{i>beta} g_i) max_{j<=k-beta-1} q[j],
    and every such maximum in a block k0..k1-1 is at most the prefix
    maximum of q at k1 - beta - 2, so the block holds when that bound is at
    most 2^-60 of the least kept sum k q[k] in it; a block that fails is
    solved again on the full band, which the rest of the recursion keeps.

    A block ends early where the bound M_k <= max(1, sum_{i<=k} |g_i| / k)
    M_{k-1} on the running maximum M_k = max_{j<=k} |q[j]| allows growth
    past 2^_BLOCK_BITS / n_max within it (the 1/n_max leaves room for the
    sums k q[k], and for g' up to 1 + _TAIL_TOL times g); a block of one
    index is the one-step loop.  The working q is rescaled by 2^-512 after
    any block whose maximum passes 2^512, so no finite q overflows.  An
    entry that a rescale would take below the smallest normal double keeps
    its value and exponent from before that rescale in (v, shift); every
    other entry is the working q at the last exponent.  The working q, and
    so every entry that stays normal, does not depend on the kept ones.
    """
    q = _aligned_zeros(n_max + 1)
    q[0] = 1.0
    v = np.zeros(n_max + 1)
    kept = np.full(n_max + 1, -1)  # the exponent an entry was kept at, or -1
    nonzero = np.flatnonzero(g[1:n_max + 1])
    band = max(1, int(nonzero[-1]) + 1 if nonzero.size else 0)
    beta, c, rho = band, 0.0, 1.0
    if band > _TAIL_MIN_BAND and not np.any(g[1:band + 1] < 0):
        beta, c, rho = _tail_model(g, n_max, band)
    b = max(1, min(_BLOCK, n_max))  # n_max = 0 solves no block
    span, grev, lower = _band_arrays(g, n_max, b, beta, c, rho)
    solve = _BlockSolve(q, b)
    solve.bind(lower)
    if c:
        # rpow[t] = rho^t and crpow[t] = c rho^t for the far tail
        rpow = rho ** np.arange(span + 1)
        crpow = c * rpow
    w, w_at = 0.0, 0  # W_{w_at}
    # the zero tail's mass, and the running maximum of q it is checked with
    cut = float(g[beta + 1:band + 1].sum()) if beta < band and not c else 0.0
    peak = np.zeros(n_max + 1) if cut else None
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
            lo = max(0, k0 - beta) & -64
            q[k0:k1] = np.correlate(grev[span - k1 + 1 + lo:span], q[lo:k0],
                                    "valid")[::-1]
            if c:
                d = lo - w_at
                w = w * rpow[d] + float(np.dot(q[w_at:lo], crpow[d:0:-1]))
                w_at = lo
                q[k0:k1] += w * rpow[k0 - lo:k1 - lo]
            lower.flat[::b + 1] = np.arange(k0, k0 + b)
            info = solve(k0, k1 - k0)
            if info:
                raise NumericGuardError(f"block solve failed (trtrs info {info})")
            if cut:
                np.maximum(np.maximum.accumulate(q[k0:k1]), peak[k0 - 1],
                           out=peak[k0:k1])
                k = max(k0, beta + 1)  # the first k with omitted terms
                if k < k1 and cut * peak[k1 - beta - 2] > \
                        2.0 ** -60 * k * float(q[k:k1].min()):
                    beta, cut = band, 0.0  # refused: the full band from here
                    span, grev, lower = _band_arrays(g, n_max, b, band, 0.0, 1.0)
                    solve.bind(lower)
                    continue
            block_max = float(np.max(np.abs(q[k0:k1])))
            if block_max > running_max:
                running_max = block_max
                if running_max > _RESCALE:
                    low = (kept[:k1] < 0) & (
                        np.abs(q[:k1]) < sys.float_info.min * _RESCALE)
                    v[:k1][low] = q[:k1][low]
                    kept[:k1][low] = shift
                    q[:k1] *= _RESCALE_INV
                    if cut:
                        peak[:k1] *= _RESCALE_INV
                    w *= _RESCALE_INV
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
    return PmfVector(p=p, tail=max(0.0, 1.0 - float(p.sum())))


def _float_log_table(spec: StructureSpec, n: int, theta: Numeric,
                     x: Optional[Numeric] = None) -> np.ndarray:
    """[log p_theta(k)]_{k<=n}, the one float p_theta table, from the full
    index set's triple at x (the exact-mean x when None): x^k p_theta(k)
    [/k! for assemblies] is P(T_n = k) / P(T_n = 0), so entry k is
    log(v 2^shift) + lseed - log_seed(1..n) - k log x [+ log k!] off the
    request's full-set triple and seed (_full_set): the recursion, whose
    lseed is that seed, or the convolution (p, 0, 0.0) where a selection's
    certified route fell back to it.  The result does not depend on x
    beyond rounding.  log(v 2^shift) is log(ldexp(v, shift)) where that
    is a normal double, else log v + shift log 2, whose large sum loses
    digits (p_theta(1) of set partitions read 1 + 2.1e-14 at n = 16000).
    One guard for every route: an entry v below the smallest normal double
    at a weight k that some structure has lost its digits.  Entry n, which
    every reader reads, raises the underflow NumericGuardError, and an
    entry k < n reads NaN, which structures.log_ptheta_table turns into
    that error for the readers of the whole table.  A true zero (no
    structure of weight k) is -inf, as is the cancellation dust a
    certified selection recursion clamps to 0.
    """
    if x is None:
        x = choose_x(spec, n, theta, XStrategy.EXACT_MEAN)
    params = TiltedParams(x=x, theta=theta)
    params.validate(spec)
    (v, shift, lseed), seed = _full_set(spec, n, params)
    with np.errstate(divide="ignore", over="ignore"):
        w = np.ldexp(v, shift)
        out = np.where((w >= sys.float_info.min) & (w < np.inf), np.log(w),
                       np.log(v) + shift * _LN2) + (lseed - seed)
    low = np.flatnonzero(v < sys.float_info.min)
    if low.size:
        low = low[_reach(spec, int(low[-1]))[low]]
        if low.size and low[-1] == n:
            raise underflow_error(n)
        out[low] = np.nan
    out -= np.arange(n + 1) * math.log(float(x))
    if spec.kind is Kind.ASSEMBLY:
        out += log_factorial_array(spec, n)
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
        g = _g_array(spec, B, n_max, params)
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
    k <= min(n_max // i, m_i), z_pmf_rows' row without its trailing zeros,
    and p the pmf of sum_{j in B, j <= i} j Z_j on 0..n_max.

    One strided update per index, p[r] <- sum_k pk[k] p[r - i k]; an index
    whose row is [1] (m_i = 0) leaves p as it was.
    """
    p = np.zeros(n_max + 1)
    p[0] = 1.0
    for i, pk in zip(B, z_pmf_rows(spec, B, n_max // np.asarray(B), params)):
        nonzero = pk.nonzero()[0]
        pk = pk[: nonzero[-1] + 1 if nonzero.size else 1]
        if len(pk) > 1 or pk[0] != 1.0:
            new = pk[0] * p
            for k in range(1, len(pk)):
                new[i * k:] += pk[k] * p[: n_max + 1 - i * k]
            p = new
        yield i, pk, p


def _selection_recursion_g(spec: StructureSpec, B: IndexSet, n_max: int,
                           params: TiltedParams) -> Optional[np.ndarray]:
    """g of the signed selection recursion of R_B, or None where the
    convolution costs fewer multiply-adds: its strided updates do
    sum_{i in B} n_max min(m_i, n_max // i), the banded recursion
    sum_{k <= n_max} min(k, band), band the last index with g != 0.  The
    recursion is counted once although the certificate may run it twice;
    the convolution's laws are one z_pmf_rows call (on the complement of 5
    indices of distinct_partitions at n = 2000: 4-5 ms of its 22 ms, both
    recursions 2.7 ms)."""
    ks, lm = _active_indices(spec, B, n_max)
    with np.errstate(over="ignore"):  # m_i beyond double range
        conv = n_max * float(np.sum(np.minimum(np.exp(lm), n_max // ks)))
    g = _g_array(spec, B, n_max, params)
    nonzero = np.flatnonzero(g[1:])
    band = int(nonzero[-1]) + 1 if nonzero.size else 1
    rec = band * (band + 1) // 2 + (n_max - band) * band
    return None if conv < rec else g


def _auto_pmf(spec: StructureSpec, B: IndexSet, n_max: int,
              params: TiltedParams) -> tuple[tuple, bool]:
    """(triple, by_recursion): the "auto" route of R_B (see
    weighted_sum_pmf), the recursion for assemblies and multisets, and for
    a selection whether it kept the certified recursion."""
    if spec.kind is not Kind.SELECTION:
        return _pmf_by_recursion(spec, B, n_max, params), True
    try:
        g = _selection_recursion_g(spec, B, n_max, params)
        if g is not None:
            return _pmf_by_recursion(spec, B, n_max, params, certify=True,
                                     g=g), True
    except NumericGuardError:
        pass  # cancellation past 2^_CANCEL_BITS, or a weight, seed or
              # coefficient beyond double range
    return _pmf_by_convolution(spec, B, n_max, params), False


def _full_set(spec: StructureSpec, n: int, params: TiltedParams) -> tuple:
    """(triple, log_seed(1..n)) of B = 1..n, kept read-only in the spec's
    "full_set" slot keyed by (n, x, theta), so prob-t's two columns, pofn
    and the moments read one route and one seed.  Only a selection's
    convolution computes the seed apart."""
    def build():
        full = index_set(range(1, n + 1))
        triple, by_recursion = _auto_pmf(spec, full, n, params)
        for arr in triple[:2]:
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return triple, (triple[2] if by_recursion
                        else log_seed(spec, full, params))
    return spec.table("full_set", build, key=(n, params.fx, params.ftheta))


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
    NumericGuardError; on "auto" B = 1..n_max reads the spec's full-set
    triple (_full_set).  "convolution" forces the per-index convolution.
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
        triple = _pmf_by_convolution(spec, B, n_max, params)
    elif bisect.bisect_right(B, n_max) == len(B) == n_max:
        # B = 1..n_max; one reaching past n_max is not kept: its seed differs
        triple = _full_set(spec, n_max, params)[0]
    else:
        triple = _auto_pmf(spec, B, n_max, params)[0]
    return _assemble(*triple)


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
    log m_i and the table exact m_i, and the seed is one log_seed.  Beyond
    that it is entry n of the float p_theta table, which reads the
    full-set triple and seed that the "recursion" route keeps, and that
    seed (both through StructureSpec.table), so there the gap the CLI's
    prob-t command prints between the two checks only the log-domain
    inversion, not the recursion or the seed.  On either route a value below the smallest normal double raises
    the underflow NumericGuardError where structures of weight n exist.
    """
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    params.validate(spec)
    if method == "recursion":
        out = float(weighted_sum_pmf(spec, range(1, n + 1), n, params).p[n])
    elif method == "closed_form":
        if exact_route(n, params.theta):
            lp = log_big(ptheta_table(spec, n, params.theta)[n])
            lseed = log_seed(spec, range(1, n + 1), params)
        else:
            lp = float(_float_log_table(spec, n, params.theta, params.x)[n])
            lseed = _full_set(spec, n, params)[1]  # the slot lp filled
        lout = lseed + n * math.log(params.fx) + lp
        if spec.kind is Kind.ASSEMBLY:
            lout -= math.lgamma(n + 1)
        out = math.exp(lout)
    else:
        raise ParameterDomainError(f"unknown method {method!r}")
    if out < sys.float_info.min and has_weight(spec, n):
        raise underflow_error(n)
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
        raise underflow_error(n)
    if pt <= 0.0:
        raise ParameterDomainError("conditioning probability P(T_n = n) is "
                                   f"zero: no structures of weight {n}")
    return pr, ps, pt


def conditioned_R_pmf(spec: StructureSpec, B: Iterable[int], n: int,
                      params: TiltedParams) -> PmfVector:
    """Law of R_B given T_n = n: r -> P(R_B=r) P(S_B=n-r) / P(T_n=n)."""
    pr, ps, pt = conditioned_block(spec, B, n, params)
    return PmfVector(p=pr.p * ps.p[::-1] / pt, tail=0.0)
