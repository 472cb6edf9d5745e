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
is solved in blocks: the terms from earlier blocks are one correlation, a
BLAS dot per index, and the terms within the block one banded triangular
solve in place (LAPACK dtbtrs, bound with ctypes in the OpenBLAS that numpy
has loaded, so scipy is not imported; scipy's dtbtrs where that library has
no ILP64 dtbtrs).  The recursion reads only a short band beta of g, so it
costs about n beta multiply-adds instead of n^2 / 2: beta is the last i
with g(i) != 0, or shorter where a nonnegative g has a certified tail past
it (_choose_tail).  A zero tail, negligible against the kept terms, is
checked row by row: the rows before the first that fails are kept, and
the full band runs from there.  A geometric tail c rho^i, as g(i) ->
theta kappa (x y)^i in the logarithmic class (polynomials over a finite
field, whose g(i) is (q x)^i), is one more unknown per index, its running
sum.  At theta = 1 the g of a multiset's R_B is periodic: with P the lcm
of B's active indices, g(i + P) = x^P g(i), so k q_k = sum_{i<P} g(i)
q_{k-i} + (g(P) + x^P (k - P)) q_{k-P} has band P and one row-dependent
entry (_period_model, certified on g as the other tails are).  For a
5-index B of integer partitions at n = 16000 that is band 36 to 2520 in
place of 16000, whose zero tail is refused since q falls like x^k.  A
dense band keeps blocks of _BLOCK indices; a short one runs in blocks as
wide as a band matrix of 512 KB holds, so polynomials(2) at n = 16000
takes two solves, not 125.  Once q is exactly 0 over the band it reads,
every later q is 0 and the recursion stops: polynomials(2)'s R_B at
n = 16000, B = {1, 2, 6, 7, 10}, whose q underflows to 0 past k = 1349,
stops at k = 2436, not at n.  Every route returns one triple
(v, shift, lseed) with P(R_B = k) = v[k] 2^shift[k] e^lseed: the
recursion (q, its per-entry exponents, log_seed(B)), the convolution
(p, 0, 0.0).  The full index set's triple and its seed are kept in one
slot per spec, so the recursion route and the closed form of one
(n, x, theta) run one route and one seed; _assemble is the one place a
pmf is made, and _float_log_table, which reads that slot, the one float
p_theta table.  The seed P(R_B = 0) = prod_{i in B} P(Z_i = 0) is a
math.fsum over B of indep_process.log_p_zero, the one implementation of
the big-m policy, which the rows of the convolution read too.

A selection's R_B is split at one index s (_split_index): the signed
selection recursion runs on the indices of B above s, and a truncated
convolution of the per-index binomial laws on those up to s, applied to
the recursion's law in its scaled (v, shift) form (_join).  The signed
recursion can cancel; almost all of it comes from the smallest indices,
since the series of |g| and of g differ by prod_{i>s} (1 - y_i^2)^(-m_i),
y_i = theta x^i.  s is 0 where that estimate for all of B is at most
2^_SPLIT_BITS (always where g >= 0), else the smallest active index whose
estimate above it is; distinct odd partitions at n = 2000 cancel by 2^34
on all of B and by 2^6.3 above s = 47, so 24 of their 1000 indices stay
on the convolution.  The part above s certifies itself (_cancellation_bits):
it is kept when its cancellation ratio is at most 2^_CANCEL_BITS = 2^10
normwise and at every weight it can reach, and the weights it cannot
reach (_reach) are exactly 0, not cancellation dust.  Otherwise (or when a
weight, the seed or a coefficient leaves double range) the convolution
runs over all of B, as it does where it costs fewer multiply-adds than
the split (the small index sets B of tv, and sets of a few active
indices).  The convolution is a strided update of length-(n_max+1)
arrays, one active index at a time: p[r] <- sum_k P(Z_i = k) p[r - i k]
over k <= min(n_max // i, m_i), with the rows P(Z_i = k) from one
indep_process.z_pmf_rows call.  It costs sum_i n_max min(m_i, n_max / i),
which is O(n^2) when every m_i is 0 or 1 and O(n^2 log n) for square-free
polynomials.

Everything is truncated at n_max with the missing mass reported as an
explicit tail.
"""

from __future__ import annotations

import bisect
import ctypes
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import NumericGuardError, ParameterDomainError, underflow_error
from .structures import (Kind, Numeric, StructureSpec, exact_route, log_big,
                         ptheta_table)
from .indep_process import (TiltedParams, XStrategy, choose_x,
                            log_factorial_array, log_m_array,
                            log_p_zero_array, overflow_guard, z_pmf_rows)

_LN2 = math.log(2.0)
_RESCALE = 2.0 ** 512
_RESCALE_INV = 2.0 ** -512
_BLOCK = 128       # the fewest indices per block of the coefficient recursion
_BAND_DOUBLES = 1 << 16  # the band matrix of its block solve: 512 KB
_BLOCK_BITS = 511  # growth of |q| allowed within one block, in bits
_DOT_PIECE = 8192  # correlation windows are summed in pieces of this many
_CANCEL_BITS = 10  # "auto" keeps a selection recursion that cancels by <= 2^10
_SPLIT_BITS = _CANCEL_BITS - 3  # the split index's cancellation estimate
_TAIL_MIN_N = 4 * _BLOCK  # recursions up to this n_max read g's band whole
_TAIL_TOL = 1e-12  # a geometric tail model holds g_i within this, relative
_EXP_ZERO = -746.0  # exp of anything below is exactly 0 (2^-1075 = e^-745.13)


def _numpy_dtbtrs():
    """LAPACK dtbtrs in the library numpy.linalg loaded, bound with ctypes,
    or None where it has no ILP64 dtbtrs.

    On Linux and macOS, dlsym on the handle of numpy.linalg._umath_linalg
    also searches the libraries it links: the OpenBLAS of the numpy wheels
    exports dtbtrs as scipy_dtbtrs_64_.  Only the ILP64 names are taken,
    since their suffix fixes the integer width; elsewhere (Windows,
    Accelerate, MKL) the block solve imports scipy's dtbtrs instead.
    """
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for name in ("scipy_dtbtrs_64_", "dtbtrs_64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            # UPLO, TRANS, DIAG, &N, &KD, &NRHS, AB, &LDAB, B, &LDB, &INFO
            fn.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 8
            fn.restype = None
            return fn
    return None


_DTBTRS = _numpy_dtbtrs()  # None: scipy.linalg.lapack.dtbtrs


class _BandSolve:
    """Solves the leading m x m block of a lower-triangular band matrix in
    place in x[off:off+m] and returns LAPACK's info (> 0: a zero on the
    diagonal).  ab holds the matrix in LAPACK's lower band storage, C-ordered
    as (columns, kd + 1): row j is column j, its diagonal entry and then the
    kd entries below it.  Both routes call dtbtrs ("L", "N", "N") on the
    Fortran view ab.T: _DTBTRS where numpy's LAPACK has it, else scipy's.
    The ctypes route binds every address once, with N, KD, NRHS, LDAB, LDB
    and INFO in one int64 block, so a call costs no more than scipy's."""

    def __init__(self, ab: np.ndarray, x: np.ndarray):
        for a in (ab, x):
            if a.dtype != np.float64 or not a.flags.c_contiguous:
                raise ValueError("ab and x must be contiguous float64 arrays")
        if ab.ndim != 2 or x.ndim != 1 or not ab.size:
            raise ValueError("ab must be (columns, kd + 1) and x a vector")
        self.ab, self.x = ab, x
        self._dtbtrs = _DTBTRS
        if self._dtbtrs is None:
            from scipy.linalg.lapack import dtbtrs
            self._scipy_dtbtrs = dtbtrs
            return
        kd = ab.shape[1] - 1
        self._ints = np.array([0, kd, 1, kd + 1, max(1, len(x)), 0],
                              dtype=np.int64)
        base = self._ints.ctypes.data
        self._n, self._kd, self._nrhs, self._ldab, self._ldb, self._info = (
            base + 8 * i for i in range(6))
        self._a, self._x = ab.ctypes.data, x.ctypes.data

    def __call__(self, off: int, m: int) -> int:
        if not (0 < m <= len(self.ab) and 0 <= off and off + m <= len(self.x)):
            raise ValueError("block outside x or larger than ab")
        if self._dtbtrs is None:
            self.x[off:off + m], info = self._scipy_dtbtrs(
                self.ab[:m].T, self.x[off:off + m], uplo="L")
            return info
        self._ints[0] = m
        self._dtbtrs(b"L", b"N", b"N", self._n, self._kd, self._nrhs, self._a,
                     self._ldab, self._x + 8 * off, self._ldb, self._info)
        return int(self._ints[5])


def _aligned_zeros(n: int) -> np.ndarray:
    """n zeros starting on a 64-byte boundary."""
    buf = np.zeros(n + 7)
    off = (-buf.ctypes.data % 64) // 8
    return buf[off:off + n]


class IndexSet(tuple):
    """A sorted tuple of distinct indices >= 1, as index_set returns it.
    It keeps its read-only int64 array (_index_array) once made."""


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


def _index_array(B: IndexSet) -> np.ndarray:
    """B as a read-only int64 array, made once per IndexSet and kept on it:
    the seed, g and the convolution of one request read the same set, and
    converting a 15,995-index complement took 0.43 ms at n = 16000.
    1..len(B), the one index set whose largest index is its length, is an
    arange: converting its 16000 ints one by one took 0.6 ms."""
    arr = getattr(B, "_array", None)
    if arr is None:
        arr = (np.arange(1, len(B) + 1) if B and B[-1] == len(B)
               else np.asarray(B, dtype=np.int64))
        arr.flags.writeable = False
        if isinstance(B, IndexSet):
            B._array = arr
    return arr


def complement(B: Iterable[int], n: int) -> IndexSet:
    """The indices 1..n that are not in B, keeping the array they were
    found in as their _index_array."""
    B = index_set(B)
    keep = np.ones(n + 1, dtype=bool)
    keep[0] = False
    keep[_index_array(B)[: bisect.bisect_right(B, n)]] = False
    arr = np.flatnonzero(keep).astype(np.int64, copy=False)
    arr.flags.writeable = False
    out = IndexSet(arr.tolist())
    out._array = arr
    return out


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
        return float((np.arange(self.n_max + 1) * self.p).sum())

    def survival(self) -> np.ndarray:
        """s[i] = P(value >= i) for i = 0..n_max+1 (s[n_max+1] = tail)."""
        s = np.concatenate([np.cumsum(self.p[::-1])[::-1] + self.tail,
                            [self.tail]])
        return s


def _active_indices(spec: StructureSpec, B: IndexSet,
                    n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(ks, log w_k) for the k in B with k <= n_max and m_k != 0, w_k the
    log_m_array weight."""
    lm = log_m_array(spec, n_max)
    ks = _index_array(B)[: bisect.bisect_right(B, n_max)]
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
    B = index_set(B)
    if not B:
        return 0.0
    params.validate(spec, B[-1])
    terms = log_p_zero_array(spec, B[-1], params)[_index_array(B)]
    if spec.kind is Kind.ASSEMBLY and np.any(terms == -np.inf):
        raise OverflowError("math range error")
    return math.fsum(terms.tolist())


@overflow_guard("a recursion weight g(i)")
def _g_array(spec: StructureSpec, B: IndexSet, n_max: int,
             params: TiltedParams,
             active: Optional[tuple] = None) -> np.ndarray:
    """g[i], i = 0..n_max, for the coefficient recursion; active is
    _active_indices(spec, B, n_max) where the caller has it.

    With w_k the log_m_array weight (m_k / k! for an assembly, m_k
    otherwise), g(i) is the sum over the pairs (k, j) with k j = i, k in B
    and m_k != 0 of k w_k theta^j x^i, negated for even j for a selection
    (the signed recursion), and for an assembly its j = 1 term, theta i
    w_i x^i = theta i lambda_i.  Each term is the exp of (log k w_k +
    j log theta) + i log x, with j log theta and i log x read from two
    arrays made once per call.  An index k <= r = isqrt(n_max) adds its
    n_max // k multiples in one strided update; the indices k > r have
    j <= n_max // (r + 1) and are added one j at a time, at a strided
    slice where they are evenly spaced (a full set, a range) and by index
    otherwise, until no k is left.  The terms are added in that order, k
    ascending and then j ascending, in one buffer, so every temporary has
    length O(n_max).  A term whose exponent is below _EXP_ZERO is exactly 0
    after exp and is not formed: a divisor's exponents fall linearly in j,
    so each strided slice is cut at one j, and past isqrt(n_max) those of
    step j are at most the largest at j = 1 plus (j - 1)(log theta + k log
    x), so each j cuts off the k past one bound (polynomials(2) at n =
    16000 has 134,130 such terms of 157,370, and np.exp takes about 20 ns
    on one against 1 ns on a normal one).  A term or a sum beyond double
    range is inf (or nan) in g, which the last check reports as
    OverflowError.
    """
    lth, lx = math.log(params.ftheta), math.log(params.fx)
    ks, lm = _active_indices(spec, B, n_max) if active is None else active
    g = np.zeros(n_max + 1)
    lk = np.log(ks) + lm
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.kind is Kind.ASSEMBLY:  # inf or nan is caught below
            g[ks] = np.exp(lk + lth + ks * lx)
        elif ks.size:
            signed = spec.kind is Kind.SELECTION
            jlth = np.arange(1, n_max // int(ks[0]) + 1) * lth  # j log theta
            ilx = np.arange(n_max + 1) * lx                     # i log x
            buf = np.empty(max(len(jlth), len(ks)))
            r = math.isqrt(n_max)
            split = int(np.searchsorted(ks, r, side="right"))
            # a divisor's exponents fall by -(log theta + k log x) per j:
            # past tops[k] every term is below _EXP_ZERO, so exactly 0
            slope = lth + ks[:split] * lx
            last = np.where(slope < 0.0, (lk[:split] - _EXP_ZERO) / -slope,
                            np.inf)
            tops = np.minimum(n_max // ks[:split], np.maximum(last, 0.0))
            for k, lkk, top in zip(ks[:split].tolist(), lk[:split].tolist(),
                                   tops.astype(np.int64).tolist()):
                t = buf[:top]
                np.add(lkk, jlth[:top], out=t)
                t += ilx[k:k * top + 1:k]
                np.exp(t, out=t)
                if signed:
                    t[1::2] *= -1.0
                g[k:k * top + 1:k] += t
            ks, lk = ks[split:], lk[split:]
            if ks.size:
                d = int(ks[1] - ks[0]) if len(ks) > 1 else 1
                even = bool(np.all(np.diff(ks) == d))
                jmax, slope_r = n_max // (r + 1), lth + (r + 1) * lx
                cuts = np.searchsorted(ks, n_max // np.arange(1, jmax + 1),
                                       side="right")
                for j in range(1, jmax + 1):
                    cut = int(cuts[j - 1])
                    if not cut:
                        break
                    t = buf[:cut]
                    np.add(lk[:cut], jlth[j - 1], out=t)
                    if even:  # k j = ks[0] j + c d j, c < cut
                        at = slice(int(ks[0]) * j, int(ks[cut - 1]) * j + 1,
                                   d * j)
                    else:
                        at = ks[:cut] * j
                    t += ilx[at]
                    if j == 1 and jmax > 1 and lx < 0.0 and slope_r < 0.0:
                        # past j = 1 the exponent of k is at most max(t) +
                        # (j - 1)(log theta + k log x), which falls in k:
                        # cut the k where that bound is below _EXP_ZERO
                        jj = np.arange(1.0, jmax)
                        k_far = np.floor(((_EXP_ZERO - float(t.max())) / jj
                                          - lth) / lx)
                        np.minimum(cuts[1:], np.searchsorted(ks, k_far,
                                                             "right"),
                                   out=cuts[1:])
                    np.exp(t, out=t)
                    if signed and j % 2 == 0:
                        g[at] -= t
                    else:
                        g[at] += t
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
    that _solve_recursion puts in place of g_i for i > beta, with g >= 0.

    The geometric tail (c > 0, only where g reaches n_max) fits log g_i on
    the far half i > n_max / 2: rho from the least-squares slope (sums by
    numpy's reduction, not np.dot, whose rounding would depend on how many
    threads OpenBLAS splits it across), then log c the median of log g_i -
    i log rho, which a few entries off by g's own rounding do not move.
    Its beta is the last i where |g_i - c rho^i| > _TAIL_TOL g_i, so the
    model holds on all of (beta, n_max]; the block solve reads it as c
    rho^(beta+1) and rho, and its running sum adds a rounding per index,
    as the sums k q_k do.

    The zero tail (c = 0) takes the smallest beta with sum_{i>beta} g_i <=
    2^-60 sum_{i<=beta} g_i, where that is shorter than the geometric one.
    Where q is non-decreasing, every q[k-i] with i <= beta is at least
    q[k-beta-1], so that bounds the omitted terms of every k q_k by 2^-60
    of the kept ones; the recursion certifies each row against the q it
    computed, not against this estimate.

    A model is returned only where it saves at least _BLOCK entries of
    every dot, else (band, 0.0, 1.0): the full band, no model.
    """
    gb = g[1:band + 1]
    beta, c, rho = band, 0.0, 1.0
    half = n_max // 2
    if band == n_max and np.all(gb[half:] > 0):
        i = np.arange(1.0, n_max + 1.0)
        t, y = i[half:] - (half + 1 + n_max) / 2, np.log(gb[half:])
        rho = math.exp(float((t * y).sum() / (t * t).sum()))
        y -= i[half:] * math.log(rho)
        c = math.exp(_median(y))
        off = np.exp(i * math.log(rho))  # |g_i - c rho^i|, in place
        off *= c
        off -= gb
        np.abs(off, out=off)
        bad = off[::-1] > _TAIL_TOL * gb[::-1]
        beta = n_max - int(np.argmax(bad)) if bad.any() else 1
    # a zero tail shorter than that: ok[b - 1] for b < beta is
    # sum_{i>b} g_i <= 2^-60 sum_{i<=b} g_i
    kept = np.cumsum(gb[:beta - 1])
    kept *= 2.0 ** -60
    ok = np.cumsum(gb[beta - 1:0:-1])[::-1] + float(gb[beta:].sum()) <= kept
    if ok.any():
        beta, c, rho = int(np.argmax(ok)) + 1, 0.0, 1.0
    if beta + _BLOCK >= band:
        return band, 0.0, 1.0
    return beta, c, rho


def _period(ks: np.ndarray, n_max: int) -> int:
    """The lcm P of a multiset's active indices ks (_active_indices), or 0
    where no periodic tail could run: for n_max up to _TAIL_MIN_N, or where
    P + _BLOCK >= n_max (a full set or a complement, whose lcm passes n_max
    within a few indices)."""
    P = 1
    for k in ks:
        P = math.lcm(P, int(k))
        if P + _BLOCK >= n_max:
            return 0
    return P if ks.size and n_max > _TAIL_MIN_N else 0


def _period_model(g: np.ndarray, n_max: int, band: int,
                  period: int) -> tuple[float, float]:
    """(r, cut): the periodic tail g'_i = r g'_{i-P} for i > P = period,
    that _solve_recursion puts in place of g_i there, with g >= 0; (0.0,
    0.0) where it does not hold.

    At theta = 1 the g of a multiset's R_B is periodic: every k in B
    divides i + P exactly when it divides i, P the lcm of B's active
    indices, so g_{i+P} = x^P g_i.  r is read off the column g_{i0 + mP}
    of the largest g_{i0}, i0 <= P, as its M-th root of g_{i0 + MP} / g_i0
    at the last normal entry, so that r^m is off by at most about g's own
    rounding.  The model g'_{i0 + mP} = r^m g_i0 holds where it is within
    _TAIL_TOL g_i of every normal g_i, i > P; an entry below the smallest
    normal double (underflowed, or a true zero) may be off by up to its
    own size, and those gaps sum to cut, which is bounded as a zero tail's
    omitted mass is: at most 2^-60 sum_{i<=P} g_i here, and per row
    against the q computed.  At theta != 1 the ratio g_{i+P} / g_i is
    theta^(P/k) x^P, which differs by k, so the model is refused.  It is
    kept only where P + _BLOCK < band.
    """
    P = period
    if not 0 < P < band - _BLOCK:
        return 0.0, 0.0
    head = g[1:P + 1]
    i0 = int(np.argmax(head[:n_max - P])) + 1
    col = g[i0::P]
    normal = np.flatnonzero(col >= sys.float_info.min)
    M = int(normal[-1]) if normal.size and normal[0] == 0 else 0
    if not M:
        return 0.0, 0.0
    r = float(col[M] / col[0]) ** (1.0 / M)
    rows = -(-(n_max - P) // P)
    off = np.multiply.outer(r ** np.arange(1.0, rows + 1.0), head).ravel()
    off = off[:n_max - P]  # the model past P, then its gap to g
    tail = g[P + 1:]
    off -= tail
    np.abs(off, out=off)
    cut = 0.0
    low = tail < sys.float_info.min
    if low.any():
        cut = float(off[low].sum())
        off[low] = 0.0
    if cut > 2.0 ** -60 * float(head.sum()) or np.any(off > _TAIL_TOL * tail):
        return 0.0, 0.0
    return r, cut


def _choose_tail(g: np.ndarray, n_max: int, band: int,
                 period: int) -> tuple[int, float, float, float, float]:
    """(beta, c, rho, r, cut): the g' that _solve_recursion reads, g up to
    beta and a tail model past it, band the last index where g != 0.

    The periodic tail (r > 0, beta = period, _period_model) is tried first,
    then the geometric (c > 0) or zero tail (_tail_model).  cut is the mass
    a zero tail omits, sum_{i>beta} g_i, or the gaps a periodic one moves;
    the recursion checks it row by row.  (band, 0.0, 1.0, 0.0, 0.0) is g'
    = g, the full band: always so for signed g, for n_max up to _TAIL_MIN_N
    (there a model costs more than it saves) and for bands no model could
    shorten by _BLOCK.
    """
    if n_max <= _TAIL_MIN_N or band <= _BLOCK + 1 or np.any(g[1:band + 1] < 0):
        return band, 0.0, 1.0, 0.0, 0.0
    r, cut = _period_model(g, n_max, band, period)
    if r:
        return period, 0.0, 1.0, r, cut
    beta, c, rho = _tail_model(g, n_max, band)
    return beta, c, rho, 0.0, (0.0 if c else float(g[beta + 1:band + 1].sum()))


def _band_system(g: np.ndarray, n_max: int, beta: int, c: float,
                 rho: float) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(width, span, grev, ab): the blocks of _solve_recursion on g' = g up
    to beta and c rho^i past it (c = 0 for a zero or a periodic tail).

    A block has up to width indices: _BLOCK where beta >= _BLOCK, since a
    wider block moves work from the correlation's dots to the solve's
    column updates, which cost more per multiply-add (a dense 255-index
    block was about 10% slower than two of 128 at n = 256); else as many
    as a band matrix of _BAND_DOUBLES doubles holds, and at least _BLOCK.
    Without a geometric tail (c = 0) the unknowns are q_k, and ab is the
    band storage of the Toeplitz matrix with k on the diagonal and -g[i]
    i rows below it, i <= kd = min(beta, width - 1).  With one they are
    T_k, q_k in turn, T_k = sum_{i>beta} c rho^i q[k-i] = rho T_{k-1} +
    c rho^(beta+1) q[k-beta-1] the tail's running sum, so the q_k row
    reads -g[i] 2i rows up and -1 at T_k, and the T_k row -rho at T_{k-1}
    and -c rho^(beta+1) 2 beta + 1 rows up: kd = min(2 beta + 1,
    2 width - 1).  Only the diagonal of the q rows changes from block to
    block, and with a periodic tail of period beta < width the entries at
    offset beta, which the block writes.  grev = g'[span::-1] with g' = 0
    past beta is the correlation kernel of the terms from earlier blocks,
    read at indices up to beta + 63 + min(width, beta) <= span."""
    r = 2 if c else 1
    kd = 2 * beta + 1 if c else beta
    width = _BLOCK if beta >= _BLOCK else max(_BLOCK,
                                              _BAND_DOUBLES // (r * (kd + 1)))
    width = max(1, min(n_max, width))
    kd = min(kd, r * width - 1)
    ab = np.empty((r * width, kd + 1))
    if c:
        pair = np.zeros((2, kd + 1))  # the columns of T_k and q_k
        pair[0, :3] = (1.0, -1.0, -rho)[:kd + 1]
        pair[1, 2::2] = -g[1:kd // 2 + 1]
        if 2 * beta + 1 <= kd:
            pair[1, 2 * beta + 1] = -c * rho ** (beta + 1)
        ab.reshape(width, 2, kd + 1)[:] = pair
    else:
        ab[:, 1:] = -g[1:kd + 1]
    span = min(n_max, beta + 63 + min(width, beta))
    gp = g[:span + 1].copy()
    gp[beta + 1:] = 0.0
    return width, span, gp[::-1].copy(), ab


def _recursion_coeffs(g: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """_solve_recursion(g, n_max, 0): the recursion on g with no period.
    perfbench's tracer counts the calls of this name, with this signature."""
    return _solve_recursion(g, n_max, 0)


def _solve_recursion(g: np.ndarray, n_max: int,
                     period: int) -> tuple[np.ndarray, np.ndarray]:
    """q with q[0] = 1, k q[k] = sum_i g[i] q[k-i], as (v, shift) with
    q[k] = v[k] 2^shift[k]; period is _period of g's index set, or 0.

    Blocks of indices k0..k1-1 are solved at once, on g' = g up to a band
    beta and the tail model past it that _choose_tail picks: g'_i = c rho^i
    (_tail_model), or, for a period P > 0, g'_i = r g'_{i-P} with beta = P
    (_period_model); beta = band, the last index where g != 0, and c = r =
    0 is g' = g, the full band.  Each block is one banded
    lower-triangular solve (_band_system, LAPACK dtbtrs through _BandSolve:
    the dtbtrs of numpy's OpenBLAS, else scipy's; the two agree bit for
    bit) whose right-hand side holds the terms from earlier blocks: for k <
    k0 + beta the correlation of q[lo:k0] with g' up to beta, a BLAS dot
    per k, and with a geometric tail rho T_{k0-1} and c rho^(beta+1)
    q[k-beta-1] in the rows of T.  lo = max(0, k0 - beta) rounded down to a
    multiple of 64 (the extra q[j] meet g'_i = 0), and q starts on a 64-byte
    boundary, so every window q[lo:k0] is aligned: on a 2-vCPU Xeon a 128 x
    4600 correlation took 137-140 us aligned and 173-182 us at the other
    offsets mod 64 that numpy's 16-byte-aligned buffers take.  A window
    longer than _DOT_PIECE is summed in pieces of _DOT_PIECE entries, added
    in order: OpenBLAS splits a dot past about 10^4 entries across its
    threads, so q does not depend on the BLAS thread count.  The block is
    as wide as its band matrix allows (_band_system): a dense band runs in
    blocks of _BLOCK indices, a band of one or two with a geometric tail in
    two or three blocks at n_max = 16000.  For g >= 0 every entry below the
    diagonal is -g_i, -1, -rho or -c rho^(beta+1) and every right-hand side
    is >= 0, so forward substitution adds sums of nonnegative terms, as the
    one-step loop on g' does, and the recursion costs about n_max beta
    multiply-adds in all instead of n_max^2 / 2.  beta is at least 1, so a
    correlation is never empty (an all-zero g gives q = e_0).

    A periodic tail needs no more unknowns.  With F(k) = sum_{i>=1} g'_i
    q[k-i] = k q[k], the terms past P are r F(k-P) = r (k-P) q[k-P], so

        k q[k] = sum_{i<P} g_i q[k-i] + (g_P + r (k-P)) q[k-P],

    a recursion of band P whose every term is >= 0 and whose only
    row-dependent entry sits at offset P.  A block writes it beside the
    diagonal, -(g_P + r j) in column j at offset P, where its band matrix
    reaches that far (P < width); a row whose q[k-P] lies before the block
    adds r (k-P) q[k-P] to its correlation with g_1..g_P instead.

    The tails are certified apart.  The geometric one holds g'_i within
    _TAIL_TOL g_i for every i > beta, and a weight-k structure has at most
    k / (beta + 1) parts past beta, so q moves by at most that many
    _TAIL_TOL relative; so does the periodic one at its normal entries.  The
    zero tail is checked row by row: the omitted part of k q[k] is at most
    cut max_{j<=k-beta-1} q[j], the maximum taken from q[0] = 1 on, with cut
    = sum_{i>beta} g_i (for a periodic tail, the gaps at g's entries below
    the smallest normal double), and row k holds when that bound is at most
    2^-60 of k q[k].  At the first row k* of a block that fails, rows
    k0..k*-1 are kept, each certified, the rest of the block is dropped, and
    the recursion goes on from k* on the full band: no kept row is solved
    again.  The tv S_B of set partitions at n = 1000 (the complement of
    {1, 4, 6, 8, 10}) reads beta = 37 of band 258 and keeps rows up to 616.

    The recursion stops once the last beta + 1 entries of q are exactly 0,
    and with a geometric tail T too: every later q is then exactly 0, as a
    solve would give it, so no bit changes.  Under a tail with cut > 0 a
    zero row fails its bound, so that tail is refused first.

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
    v = kept = None  # from the first rescale: entries kept, and their exponents
    nonzero = g[n_max:0:-1] != 0
    band = max(1, n_max - int(np.argmax(nonzero)) if nonzero.any() else 0)
    beta, c, rho, r, cut = _choose_tail(g, n_max, band, period)
    width, span, grev, ab = _band_system(g, n_max, beta, c, rho)
    x = np.zeros(len(ab)) if c else q  # T and q in turn, or q in place
    solve = _BandSolve(ab, x)
    tail = 0.0  # T_{k0-1}
    c_far = c * rho ** (beta + 1)
    peak = q.copy()  # peak[j] = max(q[:j+1]) from q[0] = 1 on, read with cut
    room = _BLOCK_BITS - n_max.bit_length()
    ks = np.arange(n_max + 1, dtype=float)
    shift = 0
    running_max = 1.0
    k0 = 1
    with np.errstate(over="ignore", invalid="ignore"):  # the guard below
        # bits[k]: the growth bound over 1..k, for k <= top; past top every
        # sum_{i<=k} |g_i| / k is below 1 (so is it for all k where every
        # |g_i| <= 1, and then top = 0)
        absg = np.abs(g[1:])
        top = 0
        if n_max and float(absg.max()) > 1.0:
            total = float(absg.sum())
            top = n_max if total >= n_max else int(total) + 1
        growth = np.log2(np.maximum(1.0, np.cumsum(absg[:top]) / ks[1:top + 1]))
        bits = np.concatenate(([0.0], np.cumsum(growth)))
        while k0 <= n_max:
            k1 = int(np.searchsorted(bits, bits[min(k0 - 1, top)] + room,
                                     side="right"))
            k1 = max(k0 + 1, min(n_max + 1 if k1 > top else k1, k0 + width,
                                 n_max + 1))
            m, kc = k1 - k0, min(k1, k0 + beta)  # rows k0..kc-1 read q[:k0]
            lo = max(0, k0 - beta) & -64
            rows = None
            for a in range(lo, k0, _DOT_PIECE):
                b = min(k0, a + _DOT_PIECE)
                part = np.correlate(grev[span - kc + 1 + a:span - k0 + b],
                                    q[a:b], "valid")
                rows = part if rows is None else rows + part
            if c:
                x[:2 * m] = 0.0
                x[1:2 * (kc - k0):2] = rows[::-1]
                x[0] = rho * tail
                j0, j1 = max(0, k0 - beta - 1), min(k0, k1 - beta - 1)
                if j0 < j1:  # T_k reads q[k-beta-1] for k <= k0 + beta
                    t0 = 2 * (j0 + beta + 1 - k0)
                    x[t0:t0 + 2 * (j1 - j0):2] += c_far * q[j0:j1]
                ab[1:2 * m:2, 0] = ks[k0:k1]
                info = solve(0, 2 * m)
                q[k0:k1] = x[1:2 * m:2]
                tail = float(x[2 * m - 2])
            else:
                q[k0:kc] = rows[::-1]
                kp = max(k0, beta)
                if r and kp < kc:  # rows whose q[k-P] lies before the block
                    back = slice(kp - beta, kc - beta)
                    q[kp:kc] += r * ks[back] * q[back]
                q[kc:k1] = 0.0
                ab[:m, 0] = ks[k0:k1]
                if r and ab.shape[1] > beta:  # row j + P reads -(g_P + r j)
                    np.multiply(ks[k0:k1], -r, out=ab[:m, beta])
                    ab[:m, beta] -= g[beta]
                info = solve(k0, m)
            if info:
                raise NumericGuardError(f"block solve failed (tbtrs info {info})")
            if cut:
                np.maximum(np.maximum.accumulate(q[k0:k1]), peak[k0 - 1],
                           out=peak[k0:k1])
                # rows from k on omit terms; a row fails where their bound
                # passes 2^-60 k q[k]
                k = min(k1, max(k0, beta + 1))
                bad = np.flatnonzero(cut * peak[k - beta - 1:k1 - beta - 1]
                                     > 2.0 ** -60 * ks[k:k1] * q[k:k1])
                if bad.size:  # keep the rows before the first that fails
                    k1 = k + int(bad[0])
                    q[k1:k0 + m] = 0.0  # the rest runs on the full band
                    beta, c, rho, r, cut = band, 0.0, 1.0, 0.0, 0.0
                    width, span, grev, ab = _band_system(g, n_max, band, 0.0, 1.0)
                    solve = _BandSolve(ab, q)
            block_max = float(np.abs(q[k0:k1]).max(initial=0.0))
            if block_max > running_max:
                running_max = block_max
                if running_max > _RESCALE:
                    if kept is None:
                        v, kept = np.zeros(n_max + 1), np.full(n_max + 1, -1)
                    low = (kept[:k1] < 0) & (
                        np.abs(q[:k1]) < sys.float_info.min * _RESCALE)
                    v[:k1][low] = q[:k1][low]
                    kept[:k1][low] = shift
                    q[:k1] *= _RESCALE_INV
                    peak[:k1] *= _RESCALE_INV
                    tail *= _RESCALE_INV
                    running_max *= _RESCALE_INV
                    shift += 512
            if not (tail or q[k1 - 1] or q[max(0, k1 - beta - 1):k1].any()):
                break  # every later q is exactly 0
            k0 = k1
    if not np.all(np.isfinite(q)):
        raise NumericGuardError("weighted-sum recursion overflowed")
    if kept is None:  # never rescaled: every exponent is 0
        return q, np.zeros(n_max + 1, dtype=np.int64)
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
    lseed is that seed, a selection's split route, whose lseed is the seed
    of the indices above s, or the convolution (p, 0, 0.0).  The result
    does not depend on x beyond rounding.  log(v 2^shift) is
    log(ldexp(v, shift)) where that is a normal double, else log v +
    shift log 2, whose large sum loses digits (p_theta(1) of set partitions read 1 + 2.1e-14 at n = 16000).
    One guard for every route: an entry v below the smallest normal double
    at a weight k that some structure has lost its digits.  Entry n, which
    every reader reads, raises the underflow NumericGuardError, and an
    entry k < n reads NaN, which structures.log_ptheta_table turns into
    that error for the readers of the whole table.  A true zero (no
    structure of weight k) is -inf: the selection routes read exactly 0
    there, the signed recursion's dust set to 0 by _reach.
    """
    if x is None:
        x = choose_x(spec, n, theta, XStrategy.EXACT_MEAN)
    params = TiltedParams(x=x, theta=theta)
    params.validate(spec, n)
    (v, shift, lseed), seed = _full_set(spec, n, params)
    with np.errstate(divide="ignore", over="ignore"):
        w = np.ldexp(v, shift)
        out = np.where((w >= sys.float_info.min) & (w < np.inf), np.log(w),
                       np.log(v) + shift * _LN2) + (lseed - seed)
    low = np.flatnonzero(v < sys.float_info.min)
    if low.size:
        top = int(low[-1])
        low = low[_reach(spec, range(1, top + 1), top)[low]]
        if low.size and low[-1] == n:
            raise underflow_error(n)
        out[low] = np.nan
    out -= np.arange(n + 1) * math.log(float(x))
    if spec.kind is Kind.ASSEMBLY:
        out += log_factorial_array(spec, n)
    return out


def _cancellation_bits(g: np.ndarray, q: np.ndarray, shift: np.ndarray,
                       n_max: int, reach: Callable[[int], np.ndarray]
                       ) -> tuple[float, np.ndarray]:
    """(bits, q'): log2 of the cancellation ratio of the signed recursion's
    q = q_g = v 2^shift (_recursion_coeffs), and q with the weights R_B
    cannot reach set to 0; reach(top) is _reach of R_B up to weight top.

    With T = diag(k) - Toeplitz(g) and M = diag(k) - Toeplitz(|g|), M is the
    comparison matrix of T, so |T^-1| <= M^-1 entrywise and q_abs = q_|g|
    bounds |q| and the rounding error alike: |q^_k - q_k| <~ 2 k gamma_n
    q_abs[k], the positive recursion's bound with q_abs in place of q.  The
    ratio is the larger of max q_abs / max |q| and q_abs[k] / q[k] at every
    weight k that R_B reaches and q_abs[k] > 0 (infinite where q[k] <= 0
    there), each entry read with its own exponent, so each such entry is
    certified relative to itself; it is 1 (0 bits) when g >= 0, and then
    q_abs is not computed.  At a weight R_B cannot reach q is cancellation
    dust, at most 2 n_max^2 u q_abs[k] <= 2^-_CANCEL_BITS q_abs[k] for n_max
    below 2 10^6: so only the entries whose ratio passes 2^_CANCEL_BITS
    are looked up in reach (none where no weight is out of reach), the
    unreachable ones set to 0 and the others counted.
    """
    if not np.any(g < 0):
        return 0.0, q
    q_abs, shift_abs = _recursion_coeffs(np.abs(g), n_max)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = q_abs / q  # inf where q = 0, < 0 where q < 0
        if np.any(shift_abs != shift):
            ratio = np.ldexp(ratio, shift_abs - shift)
    low = np.flatnonzero((q_abs > 0)
                         & ~((ratio > 0) & (ratio <= 2.0 ** _CANCEL_BITS)))
    if low.size:
        hit = reach(int(low[-1]))[low]  # reachable: the ratio counts
        q = q.copy()
        q[low[~hit]] = 0.0
        ratio[low[~hit]] = 0.0
        ratio[low[hit]] = np.where(ratio[low[hit]] > 0, ratio[low[hit]],
                                   math.inf)
    ratio[q_abs == 0] = 0.0
    i, j = int(np.argmax(q_abs)), int(np.argmax(np.abs(q)))
    gap = math.log2(q_abs[i]) - math.log2(abs(q[j])) + int(shift_abs[i] - shift[j])
    worst = float(ratio.max(initial=0.0))
    return max(gap, math.log2(worst) if worst else -math.inf), q


def _pmf_by_recursion(spec: StructureSpec, B: IndexSet, n_max: int,
                      params: TiltedParams, certify: bool = False,
                      g: Optional[np.ndarray] = None) -> tuple:
    """The coefficient recursion's triple (q, shift, log_seed(B)); g is
    built here unless the caller has it.  A multiset's recursion is given
    the period of its g (_period), which a periodic tail may read.  A
    selection whose g has negative entries reads exactly 0 at the weights
    R_B cannot reach (_reach), where the signed recursion leaves
    cancellation dust; with certify, one whose cancellation ratio passes
    2^_CANCEL_BITS (_cancellation_bits) raises NumericGuardError."""
    period = 0
    if g is None:
        active = _active_indices(spec, B, n_max)
        g = _g_array(spec, B, n_max, params, active)
        if spec.kind is Kind.MULTISET:
            period = _period(active[0], n_max)
    if period:
        q, shift = _solve_recursion(g, n_max, period)
    else:  # the entry perfbench counts, which takes no period
        q, shift = _recursion_coeffs(g, n_max)
    if spec.kind is Kind.SELECTION:
        if certify:
            bits, q = _cancellation_bits(g, q, shift, n_max,
                                         lambda top: _reach(spec, B, top))
            if bits > _CANCEL_BITS:
                raise NumericGuardError(
                    f"signed selection recursion cancels by 2^{bits:.3g}")
        elif np.any(g < 0):
            q = np.where(_reach(spec, B, n_max), q, 0.0)
        # what negative dust is left is clamped, the rest flagged (a kept
        # entry is below 2^-510, the largest |q| at least 1)
        scale = float(np.max(np.abs(q))) or 1.0
        if np.any(q < -1e-11 * scale):
            raise NumericGuardError(
                "signed selection recursion produced negative mass (cancellation)")
        q = np.where(q < 0, 0.0, q)
    return q, shift, log_seed(spec, B, params)


def _pmf_by_convolution(spec: StructureSpec, B: IndexSet, n_max: int,
                        params: TiltedParams) -> tuple:
    """The convolution's triple (p, 0, 0.0): p is the last prefix pmf of
    the indices of B with m_i != 0 (an index with m_i = 0 leaves p as it
    was, so the bits are those of prefix_pmfs over all of B).  The indices
    past n_max stay in: each scales p by P(Z_i = 0)."""
    B = index_set(B)
    ks = _active_indices(spec, B, n_max)[0]
    if B and B[-1] > n_max:
        ks = np.concatenate((ks, _index_array(B)[bisect.bisect_right(B, n_max):]))
    p = np.eye(1, n_max + 1)[0]
    for _i, _pk, p in _prefix(spec, ks, n_max, params, p):
        pass
    return p, 0, 0.0


def prefix_pmfs(spec: StructureSpec, B: IndexSet, n_max: int,
                params: TiltedParams):
    """Yields (i, pk, p) for each i in B, in order: pk[k] = P(Z_i = k) for
    k <= min(n_max // i, m_i), z_pmf_rows' row without its trailing zeros,
    and p the pmf of sum_{j in B, j <= i} j Z_j on 0..n_max (_prefix from
    the point mass at 0)."""
    yield from _prefix(spec, _index_array(index_set(B)), n_max, params,
                       np.eye(1, n_max + 1)[0])


def _prefix(spec: StructureSpec, ks: np.ndarray, n_max: int,
            params: TiltedParams, p: np.ndarray):
    """Yields (i, pk, p) for each i in ks, in order, with p the vector
    given convolved with the laws of j Z_j, j in ks, j <= i, truncated at
    n_max, and pk as prefix_pmfs yields it.

    One strided update per index, p[r] <- sum_k pk[k] p[r - i k], into a
    new array; an index whose row is [1] (m_i = 0) leaves p as it was.  The
    rows come from one z_pmf_rows call, a selection's up to min(m_i,
    n_max // i) (its binomial row is exactly 0 past m_i), so that rows of
    small m_i fall in one block of z_pmf_rows whatever their index.
    """
    k_max = n_max // ks
    if spec.kind is Kind.SELECTION:
        lm = log_m_array(spec, int(ks.max(initial=0)))[ks]
        with np.errstate(divide="ignore"):
            few = lm < np.log(k_max)  # m_i < n_max // i: e^lm rounds to m_i
        m = np.rint(np.exp(np.where(few, lm, 0.0))).astype(np.int64)
        k_max = np.where(few, m, k_max)
    for i, pk in zip(ks.tolist(), z_pmf_rows(spec, ks, k_max, params)):
        nonzero = pk.nonzero()[0]
        pk = pk[: nonzero[-1] + 1 if nonzero.size else 1]
        if len(pk) > 1 or pk[0] != 1.0:
            new = pk[0] * p
            for k in range(1, len(pk)):
                new[i * k:] += pk[k] * p[: n_max + 1 - i * k]
            p = new
        yield i, pk, p


def _join(spec: StructureSpec, ks: np.ndarray, n_max: int,
          params: TiltedParams, v: np.ndarray,
          shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, e): the law v 2^shift of a recursion convolved with the laws of
    i Z_i, i in ks, as w 2^e.

    The strided updates of _prefix run on the entries of one exponent at a
    time (one pass where the recursion never rescaled), and the parts are
    added at the exponent of the larger one, the other taken down to it:
    every term is >= 0, so no entry cancels, and the smaller part loses
    digits only where it falls below the smallest normal double there.  No
    value grows: each update is a mix with weights P(Z_i = k) <= 1.
    """
    w = e = None
    # ascending; np.unique would import numpy.ma on its first call
    for x in sorted(set(shift.tolist())):
        part = np.where(shift == x, v, 0.0)
        for _i, _pk, part in _prefix(spec, ks, n_max, params, part):
            pass
        if w is None:
            w, e = part, np.full(n_max + 1, x, dtype=np.int64)
            continue
        with np.errstate(divide="ignore"):
            top = (part > 0) & (np.log2(part) + x >= np.log2(w) + e)
        w = np.where(top, part + np.ldexp(w, e - x), w + np.ldexp(part, x - e))
        e = np.where(top, x, e)
    return w, e


def _split_index(ks: np.ndarray, lm: np.ndarray, g: np.ndarray,
                 params: TiltedParams) -> int:
    """s: 0 or the smallest active index of a selection's R_B (ks, with
    log m_k = lm) such that the signed recursion on the indices above s
    cancels by at most about 2^_SPLIT_BITS.

    The positive recursion on |g| counts what the signed one on g does,
    without its signs: their generating functions are exp(sum_k |g_k| z^k
    / k) and exp(sum_k g_k z^k / k), so the first exceeds the second at
    z = 1 by 2 sum_{g_k < 0} |g_k| / k in the log.  That is read off g for
    s = 0, and is 0 where g >= 0 (the full sets of distinct partitions and
    square-free polynomials, by Euler's identity).  Above s it is at most
    sum_{i > s} m_i log(1 / (1 - y_i^2)), y_i = theta x^i, the same sum
    with no term cancelling inside a g_k (infinite once y_i >= 1); that
    bound costs O(|ks|) where the exact one needs each g.  Both track the
    certificate: distinct odd partitions at n = 2000 read 40.9 bits at
    s = 0 against 34 certified, and 6.4 at s = 49 against 6.0.  The last
    active index (s = max B, the convolution alone) always fits."""
    neg = np.flatnonzero(g < 0)
    if 2.0 * float(np.sum(-g[neg] / neg)) <= _SPLIT_BITS * _LN2:
        return 0
    ly = math.log(params.ftheta) + ks * math.log(params.fx)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = np.exp(2.0 * ly)
        # log(-log1p(-t)) = log t + t/2 + ... where t is small
        lt = np.where(t < 1e-8, 2.0 * ly, np.log(-np.log1p(-t)))
        lt[t >= 1.0] = np.inf
        above = np.cumsum(np.exp(lm + lt)[:0:-1])[::-1]
    fits = np.append(above, 0.0) <= _SPLIT_BITS * _LN2  # above ks[j], j < |ks|
    return int(ks[int(np.argmax(fits))])


def _auto_pmf(spec: StructureSpec, B: IndexSet, n_max: int,
              params: TiltedParams) -> tuple[tuple, bool]:
    """(triple, whether its lseed is log_seed(B)): the "auto" route of R_B
    (see weighted_sum_pmf).  Assemblies and multisets take the recursion.

    A selection's R_B is split at s = _split_index: the certified signed
    recursion runs on the indices of B above s (_pmf_by_recursion, with
    their seed), and the strided updates of the active indices up to s on
    its law (_join).  s = 0 is the recursion alone, and s = max B the
    convolution alone, which is taken where its strided updates cost no
    more multiply-adds than the split: n_max (1 + min(m_i, n_max // i))
    per index (a pass for P(Z_i = 0) and one per k >= 1) against those of
    the indices up to s plus sum_{k <= n_max} min(k, band), band the last
    index where the g of all of B is != 0 (the g of the part above s is
    built only once the split is taken).  The recursion is counted once
    although the certificate runs it twice.  A refusal of the certificate,
    or a weight, seed or coefficient beyond double range
    (NumericGuardError), falls back to the convolution over all of B."""
    if spec.kind is not Kind.SELECTION:
        return _pmf_by_recursion(spec, B, n_max, params), True
    active = ks, lm = _active_indices(spec, B, n_max)
    with np.errstate(over="ignore"):  # m_i beyond double range
        cost = n_max * (1.0 + np.minimum(np.exp(lm), n_max // ks))
    try:
        g = _g_array(spec, B, n_max, params, active)
        band = int(np.flatnonzero(g).max(initial=1))
        rec = band * (band + 1) // 2 + (n_max - band) * band
        conv = float(cost.sum())
        if rec <= conv:  # else no split is cheaper than the convolution
            s = _split_index(ks, lm, g, params)
            j = int(np.searchsorted(ks, s, side="right"))
            if j < len(ks) and float(cost[:j].sum()) + rec <= conv:
                high = B
                if s:
                    high = IndexSet(B[bisect.bisect_right(B, s):])
                    g = _g_array(spec, high, n_max, params, (ks[j:], lm[j:]))
                v, shift, lseed = _pmf_by_recursion(spec, high, n_max, params,
                                                    certify=True, g=g)
                if s:
                    v, shift = _join(spec, ks[:j], n_max, params, v, shift)
                return (v, shift, lseed), not s
    except NumericGuardError:
        pass  # cancellation past 2^_CANCEL_BITS, or a weight, seed or
              # coefficient beyond double range
    return _pmf_by_convolution(spec, B, n_max, params), False


def _full_set(spec: StructureSpec, n: int, params: TiltedParams) -> tuple:
    """(triple, log_seed(1..n)) of B = 1..n, kept read-only in the spec's
    "full_set" slot keyed by (n, x, theta), so prob-t's two columns, pofn
    and the moments read one route and one seed.  Only a selection's
    convolution and split route compute the seed apart."""
    def build():
        full = index_set(range(1, n + 1))
        triple, own_seed = _auto_pmf(spec, full, n, params)
        for arr in triple[:2]:
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return triple, (triple[2] if own_seed
                        else log_seed(spec, full, params))
    return spec.table("full_set", build, key=(n, params.fx, params.ftheta))


def weighted_sum_pmf(spec: StructureSpec, B: Iterable[int], n_max: int,
                     params: TiltedParams, method: str = "auto") -> PmfVector:
    """Exact (to double precision) pmf of R_B = sum_{i in B} i Z_i on 0..n_max.

    method: "auto" picks the recursion for assemblies and multisets.  For
    selections it splits B at one index s (_auto_pmf): the signed divisor
    recursion on the indices above s, kept when its cancellation ratio
    (_cancellation_bits) is at most 2^_CANCEL_BITS = 2^10 normwise and at
    every weight it can reach, so that its error is at most about
    2 n gamma_n 2^10 relative at each such entry, joined by a convolution
    with the laws of the active indices up to s.  It takes the
    all-positive truncated convolution over all of B where that costs
    fewer multiply-adds, and falls back to it on a refusal or a
    NumericGuardError; on "auto" B = 1..n_max reads the spec's full-set
    triple (_full_set).  "convolution" forces the per-index convolution.
    Either way an entry below the smallest normal double reads 0
    (_assemble).
    """
    if n_max < 0:
        raise ParameterDomainError("n_max must be >= 0")
    if method not in ("auto", "convolution"):
        raise ParameterDomainError(f"unknown method {method!r}")
    B = index_set(B)
    params.validate(spec, B[-1] if B else 0)
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
    params.validate(spec, n)
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
            lout -= log_factorial_array(spec, n)[n]  # the float table adds it
        out = math.exp(lout)
    else:
        raise ParameterDomainError(f"unknown method {method!r}")
    if out < sys.float_info.min and has_weight(spec, n):
        raise underflow_error(n)
    return out


def has_weight(spec: StructureSpec, n: int) -> bool:
    """Whether some structure has weight n, i.e. p(n) > 0.  Only asked when
    P(T_n = n) came out below a guard: the smallest normal double, or the
    samplers' 1e-12."""
    return bool(_reach(spec, range(1, n + 1), n)[n])


def _reach(spec: StructureSpec, B: Iterable[int], n: int) -> np.ndarray:
    """reach[k] for k = 0..n: whether R_B = sum_{i in B} i Z_i takes the
    value k with positive probability (B = 1..n: whether some structure
    has weight k).

    One Python-int bitset of the weights 0..n: Z_i <= c with c = min(m_i,
    n // i) for a selection, n // i otherwise, adds i Z_i by shift-ors
    reach |= reach << (i d) that double the run of multiples covered, so
    about log2(c) of them per index.  Once an index i with Z_i unbounded
    within 0..n is in, reach is closed under adding i, so its multiples are
    skipped; and once every weight from the next index i on is reached, no
    later index adds one, so the loop stops."""
    ks, lm = _active_indices(spec, index_set(B), n)
    full = (1 << (n + 1)) - 1
    reach = 1
    idle = np.zeros(n + 1, dtype=bool)
    for i, lmi in zip(map(int, ks), lm):  # lazily: the loop may stop early
        if i >= (full ^ reach).bit_length():
            break
        if idle[i]:
            continue
        c = n // i
        if spec.kind is Kind.SELECTION and lmi < math.log(c):
            c = round(math.exp(lmi))  # Z_i <= m_i < n // i, so exact
        else:
            idle[i::i] = True
        done = 0  # reach holds every sum with i Z_i, Z_i <= done
        while done < c:
            step = min(done + 1, c - done)
            reach |= (reach << (i * step)) & full
            done += step
    bits = np.frombuffer(reach.to_bytes((n + 8) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(bits, bitorder="little")[: n + 1].astype(bool)


def conditioned_block(spec: StructureSpec, B: Iterable[int], n: int,
                      params: TiltedParams) -> tuple[PmfVector, PmfVector, float]:
    """(P_R, P_S, P(T_n = n)): the pmfs of R_B and of S_B = R_{B^c} on
    0..n and their convolution at n.  A P(T_n = n) below the smallest
    normal double is a numeric guard when structures of weight n exist (it
    underflowed), and a zero one a domain error when none do.  The sum at n
    is numpy's own pairwise reduction, not np.dot, whose rounding would
    depend on how many threads OpenBLAS splits it across."""
    B = index_set(B)
    pr = weighted_sum_pmf(spec, B, n, params)
    ps = weighted_sum_pmf(spec, complement(B, n), n, params)
    pt = float((pr.p * ps.p[::-1]).sum())
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
