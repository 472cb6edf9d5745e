"""Exact samplers for C(n) and the refined D(n).

C(n) is the independent process (Z_1, ..., Z_n) conditioned on T_n = n, with
T_i = Z_1 + 2 Z_2 + ... + i Z_i.  Two functions draw it.

sample_components, the production route, draws without rejection by the
recursive method of Nijenhuis and Wilf.  With Q[i, r] = P(T_i = r),

    P(Z_i = k | T_i = r) = P(Z_i = k) Q[i-1, r - i k] / Q[i, r],

so Z_n, Z_{n-1}, ..., Z_1 are drawn in turn from the remainder r that the
larger indices left, starting at r = n, one uniform per index.  Z_i = 0
exactly when P(Z_i = 0) Q[i-1, r] > u Q[i, r], a test on entries with
i <= r only, which holds for every i > r, and most indices draw 0.  The
weights add up to Q[i, r] within about 1e-13 (bit for bit where no weight
reads above the diagonal).  The draw visits the rows of Q from the top in
blocks of _WINDOW indices, wider for a block of few samples (at least
_WINDOW_CELLS // count, at most n): in a block each sample finds its next
index J with Z_J > 0 by one compare over its window and runs the
inverse-CDF compare over k <= r // J there only.  Each sample's draws are
those of the index-by-index loop, with the same uniforms, and the window
changes no sample.  The remainder ends at 0, so every draw is
accepted and trials = accepted = count.  Stream k's uniforms are the rows
of one (count_k, n) matrix from its own generator; all streams go through
one top-down pass in blocks of as many samples as _BLOCK_BYTES (512 KiB)
holds rows of n uniforms, at least _BLOCK_FLOOR (64), and the block size
bounds memory without changing a sample.  A block's working set is one
buffer of uniforms, which each block refills in place, the counts Z_i in
the narrowest unsigned dtype that holds n (uint16 for 256 <= n < 65536),
and the temporaries of one row window.  sample_blocks yields each block's
counts; sample_components makes each sample's tuple from its own row,
and the CLI `sample` formats a block's nonzero counts and adds its rows
to the statistics columns (block_statistics), then drops it, so it holds
no sample as an n-tuple.  The rows of
Q are the prefix pmfs of the strided update behind the selection
convolution (sumdist.prefix_pmfs), kept with the per-index rows
P(Z_i = k) in one spec slot for the last (n, x, theta) sampled.

The draw reaches a state (i, r), index i still to draw with remainder r,
only after every index above i is drawn: either none drew a positive
count, and r = n, or some j > i did, and r <= n - j <= n - 1 - i.  So of
the lower triangle i <= r only the rows i <= h(r) = min(r, n - 1 - r) of a
column r < n are ever read, and column n whole: (n+1)^2 / 4 + O(n)
entries, half of the triangle (_draw_top_down gives the argument for every
read).  Those are stored, packed by column, so that a window of column r
is one contiguous slice, and each row is written into its kept columns as
it comes.  No index above r adds to T_i = r, so for r < i

    Q[i, r] = Q[r, r] P(Z_{r+1} = 0) ... P(Z_i = 0),

read as Q[r, r] exp(lz[i] - lz[r]) from the running sum lz of
log P(Z_m = 0): within 2e-13 relative of the dense chain on the builtins
at n <= 4000, and exactly 0 where it is.  Of the weights at index i only
the last, at k = r // i, can read there, and only a diagonal entry
Q[r, r] with r <= (n - 1) / 2, which is kept.  The table takes
2 (n+1)^2 bytes plus O(n): 2 MB at n = 1000, 32 MB at n = 4000 and 512 MB
at n = 16000 (twice that with the whole triangle).  The CLI `sample` on
set_partitions peaks at 535 MB RSS at n = 16000 with 20 samples (1,023 MB
with the whole triangle), at 74 MB at n = 4000 with 2000 samples and at
45 MB at n = 1000 with 8000: the table, one block and the imports (153
and 126 MB when it held every sample as an n-tuple beside one count
matrix of them all, 402 MB at n = 4000 when every uniform of a request
sat in one block, copied once, beside int64 counts).
acceptance_exact is read off the table as Q[n, n] = P(T_n = n).

Underflowed table entries cannot bias the law.  A state (i, r) is reached
with probability P(T_i = r) P(T_n - T_i = n - r) / P(T_n = n), which is at
most P(T_i = r) / P(T_n = n) <= 1e12 P(T_i = r) because both functions
refuse P(T_n = n) < 1e-12 (a domain error where no structure weighs n).
So a state whose entry underflows (below 2.2e-308) is reached with
probability below 2.2e-296.  A weight of exactly 0 is never chosen, and
a positive weight leads to a state whose stored entry Q[min(i, r), r] is
positive.

sample_by_rejection is the independent check: draw the independent
process, keep it when T_n = n.  Per-index draws are inverse-CDF lookups
on the truncated laws of Z_i (support 0..n//i): one np.searchsorted per
index over a fixed block of _BLOCK trials, where a draw beyond the
support adds n + 1 to T, so huge m_i never touch integer-width limits
and all three kinds share one code path.  A block
keeps the uniforms of its accepted trials only, and their vectors are
rebuilt by one more searchsorted per index on those rows.  Its
acceptance_exact is sumdist.prob_T_eq_n, computed independently of the
table.

draw_T, the unconditioned T_n behind the empirical cdf of T_n / n, needs
no rejection: it is an inverse CDF on the pmf of T_n on 0..n, the
full-set slot of sumdist.weighted_sum_pmf, one uniform per draw and
O(count + n) memory.

Streams are the unit of reproducibility: stream k of seed s is
Generator(Philox(SeedSequence(s, spawn_key=(k,)))), the counter-based
Philox generator, and identical (seed, stream, count, streams) gives
identical output from either function.  Both draw every stream in the
calling thread, one stream after another, and start no thread: the
rejection streams are the single-stream runs at rng.stream + k,
concatenated in stream order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import NumericGuardError, ParameterDomainError
from .structures import ComponentVector, Kind, StructureSpec
from .indep_process import TiltedParams, z_pmf_rows
from . import sumdist

_BLOCK = 4096  # rejection: trials per block, fixed for reproducibility
_BLOCK_BYTES = 1 << 19  # table: bytes of uniforms per block, a memory
                        # bound only (218 samples at n = 300, 65 at 1000)
_BLOCK_FLOOR = 64  # table: least samples per block, whatever n (see
                   # _block_rows): 2 MB of uniforms at n = 4000, 8 MB at 16000
_WINDOW = 128  # table: least indices per row block of the top-down draw;
               # it changes the work per block, not a sample, and a block
               # reads one contiguous slice of each packed column
_WINDOW_CELLS = 1 << 15  # table: a block of count samples takes row blocks
                         # of at least _WINDOW_CELLS // count indices
_UNDERFLOW_GUARD = 1e-12


@dataclass(frozen=True)
class RngState:
    """Reproducible stream address: (seed, stream) -> Philox generator."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))

    def with_stream(self, stream: int) -> "RngState":
        return RngState(seed=self.seed, stream=stream)


@dataclass
class SampleBatch:
    samples: list
    trials: int
    acceptance_exact: float

    def __post_init__(self):
        if self.accepted > self.trials:
            raise ParameterDomainError("inconsistent sample accounting")

    @property
    def accepted(self) -> int:
        return len(self.samples)


@dataclass
class _PrefixTable:
    """The entries of q[i, r] = P(T_i = r) that the top-down draw can read,
    packed by column, with the per-index laws it reads beside them.

    Column r < n keeps rows 0..h(r), h(r) = min(r, n - 1 - r), and column n
    keeps rows 0..n: qc[tri[r] + i] = q[i, r], tri the cumulative sum of
    the column lengths, (n + 1)^2 // 4 entries before column n.  n + 1
    zeros follow, q[i, n + 1] = 0 for i <= n, which a remainder of -1
    reads (tri[-1] = tri[n + 1]).  A state (i, r) with r < n is reached
    only after some j > i drew Z_j > 0, so r <= n - 1 - i: the draw reads
    rows i <= min(r, n - 1 - r) of column r, and the rest of the lower
    triangle is never read (see _draw_top_down).  An entry above the
    diagonal, r < i, is q[r, r] exp(lz[i] - lz[r]): no index above r adds
    to T_i = r, so it is q[r, r] times P(Z_m = 0) for r < m <= i.  lz[i]
    sums log P(Z_m = 0) over m <= i, leaving out the m where P(Z_m = 0)
    underflows to 0; zl[i] is the last such m <= i (0 if none), and
    q[i, r] = 0 for r < zl[i].  pk[off[i]:off[i] + kmax[i] + 1] =
    P(Z_i = k) as sumdist.prefix_pmfs yields it, the very factors whose
    products q[i] sums, zero-padded to n // i + 1 entries, so pk[off[i] + k]
    = 0 for kmax[i] < k <= n // i; p0[i] = P(Z_i = 0) (index 0 holds [1]);
    n zeros follow the last row."""

    qc: np.ndarray
    tri: np.ndarray
    lz: np.ndarray
    zl: np.ndarray
    p0: np.ndarray
    kmax: np.ndarray
    pk: np.ndarray
    off: np.ndarray


def _prefix_table(spec: StructureSpec, n: int,
                  params: TiltedParams) -> _PrefixTable:
    def build():
        r = np.arange(n)
        # column r < n keeps rows 0..min(r, n - 1 - r), column n all n + 1
        tri = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.append(np.minimum(r, n - 1 - r) + 1, n + 1), out=tri[1:])
        qc = np.zeros(tri[-1] + n + 1)
        qc[0] = 1.0
        # row 0 is [1], row i takes n // i + 1 entries
        off = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.append(1, n // np.arange(1, n + 1) + 1), out=off[1:])
        pk = np.zeros(off[-1] + n)
        pk[0] = 1.0
        kmax = np.zeros(n + 1, dtype=np.int64)
        for i, pk_i, p in sumdist.prefix_pmfs(spec, tuple(range(1, n + 1)),
                                              n, params):
            qc[tri[i:n - i] + i] = p[i:n - i]  # row i into its kept columns
            qc[tri[n] + i] = p[n]
            pk[off[i]:off[i] + len(pk_i)] = pk_i
            kmax[i] = len(pk_i) - 1
        p0 = pk[off[:-1]]
        zl = np.maximum.accumulate(np.where(p0 == 0, np.arange(n + 1), 0))
        lz = np.cumsum(np.log(np.where(p0 == 0, 1.0, p0)))
        return _PrefixTable(qc=qc, tri=tri, lz=lz, zl=zl, p0=p0, kmax=kmax,
                            pk=pk, off=off)
    return spec.table("prefix_pmfs", build, key=(n, params.fx, params.ftheta))


def _q(tab: _PrefixTable, i: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Q[i, r] for 0 <= i, r <= n: the packed entry where i <= r, whose
    factor is exp(0) = 1, and above the diagonal Q[r, r] exp(lz[i] - lz[r])
    where r >= zl[i], 0 below.  Each entry it reads must be kept: i <= r
    needs i <= n - 1 - r (or r = n), and r < i needs r <= (n - 1) / 2."""
    c = np.minimum(i, r)
    return (tab.qc[tab.tri[r] + c] * np.exp(tab.lz[i] - tab.lz[c])
            * (r >= tab.zl[i]))


def _draw_top_down(tab: _PrefixTable, u: np.ndarray) -> np.ndarray:
    """a[s, i-1] = Z_i of sample s, drawn from C(n) with u[s, i-1] at index i.

    At index i a sample with remainder r picks k with weights
    P(Z_i = k) Q[i-1, r - i k] (zero for r < i k): k is the number of
    cumulative weights at or below u times their total.  That total is
    Q[i, r] (the same products, added in the same order as
    sumdist.prefix_pmfs), bit for bit unless the last weight, at
    k = r // i, reads above the diagonal through _q, and within about 1e-13
    then.  k = 0 exactly when P(Z_i = 0) Q[i-1, r] > u Q[i, r], which holds
    for sure when i > r.  The rows of Q are visited in blocks (lo, hi] of
    max(_WINDOW, _WINDOW_CELLS // count) indices, at most n, so that a
    block of few samples takes few wide windows: in a block each sample
    reads Q[lo..top, r], one slice of column r up to the highest index top
    still to draw in the block, finds its next index J with Z_J > 0 by one
    compare over its window, draws Z_J, and looks again below J with the
    new remainder.

    Every entry read that decides a draw is kept in the half table.  The
    scan of a sample reads Q[i, r] and Q[i-1, r] for i <= min(r, top),
    and top is below every index drawn so far: r = n before the first
    draw with Z_J > 0, whose column is kept whole, and r <= n - 1 - top
    after it.  The draw of Z_J reads Q[J-1, r] and, for k >= 1,
    Q[J-1, r - J k] with r - J k <= n - J, so J - 1 <= n - 1 - (r - J k);
    its last weight reads the diagonal Q[c, c] through _q only where
    c = r - J k < J - 1, so 2 c < (J - 1) + (n - J) and c <= (n - 1) / 2.
    The masked reads of a scan past h(r), and of a window past top, land
    in the next columns (or the trailing zeros), finite values whose
    compares the mask drops, as the reads above the diagonal always did;
    a weight past a sample's k_cap reads the trailing zeros (remainder
    -1) or a zero-padded pk entry.
    """
    count, n = u.shape
    qc, tri, p0, kmax, pk, off = (tab.qc, tab.tri, tab.p0, tab.kmax, tab.pk,
                                  tab.off)
    width = min(max(_WINDOW, _WINDOW_CELLS // count), n)
    r = np.full(count, n, dtype=np.int64)
    a = np.zeros((count, n), dtype=np.min_scalar_type(n))  # Z_i <= n
    windows = np.lib.stride_tricks.sliding_window_view(qc, width + 1)
    for hi in range(n, 0, -width):
        lo = max(hi - width, 0)
        idx = np.arange(lo + 1, hi + 1)
        s = np.flatnonzero(r > lo)
        top = np.full(s.size, hi)
        while s.size:
            t = int(top.max())
            rs = r[s]
            # qw[:, i - lo] = Q[i, r] for lo <= i <= min(t, r)
            qw = windows[tri[rs] + lo, : t - lo + 1]
            # u Q[i, r] and P(Z_i = 0) Q[i-1, r] in place, in that order,
            # on the two copies the fancy indexing made
            uq = u[s, lo:t]
            uq *= qw[:, 1:]
            qw[:, :-1] *= p0[lo + 1: t + 1]
            live = qw[:, :-1] <= uq
            # an index whose row is [P(Z_i = 0)] has Q[i, r] =
            # P(Z_i = 0) Q[i-1, r], so it draws 0 wherever Q[i, r] > 0
            live &= idx[: t - lo] <= np.minimum(rs, top)[:, None]
            has = live.any(axis=1)
            s, rs = s[has], rs[has]
            if not s.size:
                break
            j = t - np.argmax(live[:, ::-1], axis=1)[has]
            jm = j - 1
            k_cap = np.minimum(rs // j, kmax[j])
            ks = np.arange(int(k_cap.max()) + 1)
            rest = rs[:, None] - j[:, None] * ks
            np.maximum(rest, -1, out=rest)
            w = qc[tri[rest] + jm[:, None]]
            # rest >= j for k < k_cap: only k_cap can read above the diagonal
            w[np.arange(j.size), k_cap] = _q(tab, jm, rs - j * k_cap)
            # w = 0 past k_cap: pk is zero-padded to k = n // j, and past
            # r // j the remainder -1 reads the trailing zeros
            w *= pk[off[j][:, None] + ks]
            cum = w.cumsum(axis=1)
            k = (cum <= (u[s, jm] * cum[:, -1])[:, None]).sum(axis=1)
            a[s, jm] = k
            rs -= j * k
            r[s] = rs
            more = (jm > lo) & (rs > lo)
            s, top = s[more], jm[more]
    if np.any(r != 0):
        raise NumericGuardError("top-down draw left a nonzero remainder")
    return a


def _uniform_rows(rng: RngState, per: list, n: int):
    """The (per[k], n) uniform matrix of each stream k, stream after stream,
    yielded in row blocks of _block_rows(n), all in one buffer that each
    block overwrites.  Stream k fills its rows in place from its own
    generator, in C order as gen.random((per[k], n)) would, and the block
    sizes do not change their values."""
    buf = np.empty((min(_block_rows(n), sum(per)), n))
    size = 0
    for k, want in enumerate(per):
        gen = rng.with_stream(rng.stream + k).generator()
        while want:
            take = min(want, len(buf) - size)
            gen.random(out=buf[size:size + take])
            size += take
            want -= take
            if size == len(buf):
                yield buf
                size = 0
    if size:
        yield buf[:size]


def _block_rows(n: int) -> int:
    """Samples per block of the table route: as many rows of n uniforms as
    _BLOCK_BYTES holds, at least _BLOCK_FLOOR.  The floor bounds the work,
    not the memory: every block walks every row window of the table, from
    index n down, so a block of few samples pays that walk for few draws.
    Plain 512 KiB blocks hold 16 samples at n = 4000, where 2000 samples
    (one BLAS thread, warm table) took 0.50 s on set_partitions and 0.80 s
    on integer_partitions against 0.39 and 0.44 s in 8 MB blocks of 262;
    blocks of 64 take 0.40 and 0.50 s."""
    return max(_BLOCK_FLOOR, _BLOCK_BYTES // (8 * n))


def _per_stream(count: int, streams: int) -> list:
    """The samples of each stream k: count split as evenly as it goes, the
    first count % streams streams taking one more."""
    if count < 0 or streams < 1:
        raise ParameterDomainError("count must be >= 0 and streams >= 1")
    return [count // streams + (1 if k < count % streams else 0)
            for k in range(streams)]


def _checked(spec: StructureSpec, n: int, p_exact: float) -> float:
    """P(T_n = n), refused below 1e-12: a domain error where no structure
    weighs n, the numeric guard where one does and no x helps enough."""
    if p_exact < _UNDERFLOW_GUARD:
        if not sumdist.has_weight(spec, n):
            raise ParameterDomainError(f"no structures of weight {n}")
        raise NumericGuardError(
            f"acceptance probability {p_exact:.3g} below {_UNDERFLOW_GUARD}; "
            "choose a better x")
    return p_exact


def sample_blocks(spec: StructureSpec, n: int, params: TiltedParams,
                  count: int, rng: RngState,
                  streams: int = 1) -> tuple[float, Iterator[np.ndarray]]:
    """(P(T_n = n), the draws of sample_components in count blocks): each
    block is a new (rows, n) array a with a[s, i-1] = Z_i of one sample,
    in the narrowest unsigned dtype that holds n, and the blocks hold the
    count samples in order, _block_rows(n) to a block but the last.  The
    table and the guard run on the call, each block's draw as it is read,
    so a reader that drops each block holds one at a time.
    """
    per = _per_stream(count, streams)
    tab = _prefix_table(spec, n, params)
    p_exact = _checked(spec, n, float(tab.qc[tab.tri[n] + n]))
    return p_exact, (_draw_top_down(tab, u)
                     for u in _uniform_rows(rng, per, n))


def sample_components(spec: StructureSpec, n: int, params: TiltedParams,
                      count: int, rng: RngState,
                      streams: int = 1) -> SampleBatch:
    """Exact draws from the P_theta law of C(n), top-down from the cached
    prefix pmfs, with no rejection (count = 0 just builds the table).
    With streams > 1 the samples are split over independent substreams
    (stream indices rng.stream + k) and merged in stream order, so the
    result is deterministic for fixed (seed, stream, count, streams).
    The vectors are those of sample_blocks' blocks.
    sample_by_rejection is its independent check.
    """
    p_exact, blocks = sample_blocks(spec, n, params, count, rng, streams)
    samples = [v for a in blocks for v in ComponentVector.from_rows(a)]
    return SampleBatch(samples=samples, trials=count, acceptance_exact=p_exact)


def sample_by_rejection(spec: StructureSpec, n: int, params: TiltedParams,
                        count: int, rng: RngState,
                        streams: int = 1) -> SampleBatch:
    """The draws of sample_components' law by rejection: the independent
    process until T_n = n, in blocks of _BLOCK trials, each stream k the
    single-stream run at rng.stream + k.  trials counts every trial of a
    block, up to the last acceptance in a stream's last block.
    """
    per = _per_stream(count, streams)
    p_exact = _checked(spec, n, sumdist.prob_T_eq_n(spec, n, params))

    def build():  # cum[i] = the cdf of Z_i on 0..n // i, where P(Z_i = 0) < 1
        rows = z_pmf_rows(spec, range(1, n + 1), n // np.arange(1, n + 1),
                          params)
        return {i: np.cumsum(row) for i, row in enumerate(rows, start=1)
                if row[0] < 1.0}
    cum = spec.table("sampler_tables", build, key=(n, params.fx, params.ftheta))
    samples: list[ComponentVector] = []
    trials = 0
    for k, want in enumerate(per):
        gen = rng.with_stream(rng.stream + k).generator()
        while want:
            # Z_i counts the cum[i] entries at or below the uniform; a draw
            # past n // i adds n + 1, so that trial has T > n for sure
            u = gen.random((_BLOCK, n))
            t = np.zeros(_BLOCK, dtype=np.int64)
            for i, c in cum.items():
                z = np.searchsorted(c, u[:, i - 1], side="right")
                t += np.where(z < len(c), i * z, n + 1)
            hit = np.flatnonzero(t == n)[:want]
            trials += int(hit[-1]) + 1 if hit.size == want else _BLOCK
            a = np.zeros((hit.size, n), dtype=np.int64)
            for i, c in cum.items():
                a[:, i - 1] = np.searchsorted(c, u[hit, i - 1], side="right")
            samples.extend(ComponentVector.from_rows(a))
            want -= hit.size
    return SampleBatch(samples=samples, trials=trials, acceptance_exact=p_exact)


def draw_T(spec: StructureSpec, n: int, params: TiltedParams, count: int,
           rng: RngState) -> np.ndarray:
    """Unconditioned draws of T_n (values above n reported as n + 1): one
    uniform per draw, inverse CDF on the pmf of T_n on 0..n that the
    full-set slot holds (sumdist.prob_T_eq_n reads and fills it)."""
    cdf = np.cumsum(sumdist.weighted_sum_pmf(spec, range(1, n + 1), n, params).p)
    return np.searchsorted(cdf, rng.generator().random(count), side="right")


# ---------------------------------------------------------------------------
# refined sampling
# ---------------------------------------------------------------------------

def sample_refined(spec: StructureSpec, n: int, params: TiltedParams,
                   count: int, rng: RngState) -> list[dict]:
    """Exact draws of the refined process D(n) = (Y | T_n = n).

    Samples C first, then splits each count a_i over the m_i structures of
    size i from the exact conditional law of (Y_i1, ..., Y_im) given the sum:
    uniform multinomial cells for assemblies, a uniform composition (stars
    and bars) for multisets, a uniform a_i-subset for selections.  Each
    sample is a dict i -> tuple of m_i counts (sizes with a_i = 0 omitted).
    """
    batch = sample_components(spec, n, params, count, rng)
    gen = rng.with_stream(rng.stream + 1_000_003).generator()
    out = []
    for v in batch.samples:
        d: dict[int, tuple[int, ...]] = {}
        for i, ai in enumerate(v.a, start=1):
            if ai == 0:
                continue
            mi = spec.m(i)
            if not isinstance(mi, int) or mi > 10**6:
                raise ParameterDomainError(
                    "refined sampling needs modest integer m_i")
            d[i] = _split_count(spec.kind, ai, mi, gen)
        out.append(d)
    return out


def _split_count(kind: Kind, a: int, m: int, gen: np.random.Generator) -> tuple:
    if kind is Kind.ASSEMBLY:
        return tuple(gen.multinomial(a, np.full(m, 1.0 / m)).tolist())
    if kind is Kind.MULTISET:
        if m == 1:
            return (a,)
        cuts = np.sort(gen.choice(a + m - 1, size=m - 1, replace=False))
        bounds = np.concatenate([[-1], cuts, [a + m - 1]])
        return tuple((np.diff(bounds) - 1).tolist())
    if a > m:
        raise AssertionError("selection multiplicity above m_i on an accepted "
                             "sample; this has probability zero")
    picks = gen.choice(m, size=a, replace=False)
    d = np.zeros(m, dtype=int)
    d[picks] = 1
    return tuple(d.tolist())


# ---------------------------------------------------------------------------
# derived statistics
# ---------------------------------------------------------------------------

@dataclass
class StatsTable:
    """Per-sample functionals and their summary moments.

    columns: K (component count), L (largest part), J (distinct sizes),
    D (mean size of a uniformly chosen component given the sample), Dstar
    (mean size-biased component size given the sample).  D and Dstar are
    the per-sample conditional means, so their averages estimate E D_n and
    E D*_n with reduced variance and no extra randomness.  A table holds
    at least one sample.
    """

    columns: dict

    def __post_init__(self):
        if not self.columns.get("K"):
            raise ParameterDomainError("empty sample batch")

    def summary(self) -> dict:
        out = {}
        for name, col in self.columns.items():
            col = np.asarray(col, dtype=float)
            mean = float(col.mean())
            var = float(col.var(ddof=1)) if len(col) > 1 else 0.0
            out[name] = {"mean": mean, "var": var,
                         "se": math.sqrt(var / len(col)) if len(col) > 1 else 0.0}
        return out


def block_statistics(a: np.ndarray) -> dict:
    """The columns of StatsTable for one block of counts, a[s, i-1] = a_i
    of sample s, as lists: each value is that of its own row, so the
    columns of consecutive blocks, joined, are those of all their rows."""
    n = a.shape[1]
    sizes = np.arange(1, n + 1)
    present = a > 0
    K, J = a.sum(axis=1, dtype=np.int64), present.sum(axis=1)
    L = np.where(J > 0, n - np.argmax(present[:, ::-1], axis=1), 0)
    # the sums stay int64 (einsum casts a in buffered chunks, where a @ sizes
    # would cast all of it) and are divided once, so each value is the
    # float(sum) / k (or / n) of one sample, and the summary prints the same
    D = np.where(K > 0, np.einsum("ij,j->i", a, sizes, dtype=np.int64)
                 / np.maximum(K, 1), 0.0)
    Dstar = np.einsum("ij,j->i", a, sizes * sizes, dtype=np.int64) / n
    return {"K": K.tolist(), "L": L.tolist(), "J": J.tolist(),
            "D": D.tolist(), "Dstar": Dstar.tolist()}


def statistics(samples: Iterable[ComponentVector]) -> StatsTable:
    """The StatsTable of samples: block_statistics on one block of their
    counts, in the narrowest unsigned dtype that holds the largest (that
    of sample_blocks for samples of C(n)), not a dense int64 copy."""
    samples = list(samples)
    if not samples:
        return StatsTable(columns={})  # which refuses it as empty
    a = np.array([v.a for v in samples],
                 dtype=np.min_scalar_type(max(max(v.a) for v in samples)))
    return StatsTable(columns=block_statistics(a))
