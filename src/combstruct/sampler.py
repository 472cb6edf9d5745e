"""Exact samplers for C(n) and the refined D(n).

C(n) is the independent process (Z_1, ..., Z_n) conditioned on T_n = n, with
T_i = Z_1 + 2 Z_2 + ... + i Z_i.  Two routes draw it.

The table route (the default, method="table") draws without rejection by
the recursive method of Nijenhuis and Wilf.  With Q[i, r] = P(T_i = r),

    P(Z_i = k | T_i = r) = P(Z_i = k) Q[i-1, r - i k] / Q[i, r],

so Z_n, Z_{n-1}, ..., Z_1 are drawn in turn from the remainder r that the
larger indices left, starting at r = n, one uniform per index.  Z_i = 0
exactly when P(Z_i = 0) Q[i-1, r] > u Q[i, r], a test on entries with
i <= r only, which holds for every i > r, and most indices draw 0.  The
weights add up to Q[i, r] within about 1e-13 (bit for bit where no weight
reads above the diagonal).  The draw visits the rows of Q from the top in
blocks of _WINDOW indices: in a block each sample finds its next index J
with Z_J > 0 by one compare over its window and runs the inverse-CDF
compare over k <= r // J there only.  Each sample's draws are those of the
index-by-index loop, with the same uniforms, and the window changes no
sample.  The remainder ends at 0, so every draw is
accepted and trials = accepted = count.  Stream k's uniforms are the rows
of one (count_k, n) matrix from its own generator; all streams go through
one top-down pass, in blocks of at most _BLOCK samples, and the block size
bounds memory without changing a sample.  The rows of Q are the
prefix pmfs of the strided update behind the selection convolution
(sumdist.prefix_pmfs), kept with the per-index rows P(Z_i = k) in one spec
slot for the last (n, x, theta) sampled.  Only the lower triangle i <= r
is stored, packed by column, so that a window of column r is one
contiguous slice.  No index above r adds to T_i = r, so for r < i

    Q[i, r] = Q[r, r] P(Z_{r+1} = 0) ... P(Z_i = 0),

read as Q[r, r] exp(lz[i] - lz[r]) from the running sum lz of
log P(Z_m = 0): within 2e-13 relative of the dense chain on the builtins
at n <= 4000, and exactly 0 where it is.  Of the weights at index i only
the last, at k = r // i, can read there.  The table takes
4 (n+1)(n+2) bytes plus O(n): 4 MB at n = 1000, 64 MB at n = 4000 and
1.02 GB at n = 16000.  acceptance_exact is read off the table as
Q[n, n] = P(T_n = n).

Underflowed table entries cannot bias the law.  A state (i, r) is reached
with probability P(T_i = r) P(T_n - T_i = n - r) / P(T_n = n), which is at
most P(T_i = r) / P(T_n = n) <= 1e12 P(T_i = r) because both routes refuse
P(T_n = n) < 1e-12.  So a state whose entry underflows (below 2.2e-308)
is reached with probability below 2.2e-296.  A weight of exactly 0 is
never chosen, and a positive weight leads to a state whose stored entry
Q[min(i, r), r] is positive.

The rejection route (method="rejection") is the independent check: draw
the independent process, keep it when T_n = n.  Per-index draws are
inverse-CDF lookups on the truncated laws of Z_i (support 0..n//i): one
np.searchsorted per index over a fixed block of _BLOCK trials, where a
draw beyond the support adds n + 1 to T, so huge m_i never touch
integer-width limits and all three kinds share one code path.  A block
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
identical output on either route.  Both routes draw every stream in the
calling thread, one stream after another, and start no thread: the
rejection route's streams are the single-stream runs at rng.stream + k,
concatenated in stream order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericGuardError, ParameterDomainError
from .structures import ComponentVector, Kind, StructureSpec
from .indep_process import TiltedParams, z_pmf_rows
from . import sumdist

_BLOCK = 4096  # rejection: trials per block, fixed for reproducibility;
               # table: samples per block, a memory bound only
_WINDOW = 128  # table: indices per row block of the top-down draw; it
               # changes the work per block, not a sample, and a block
               # reads one contiguous slice of each packed column
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
    accepted: int
    acceptance_exact: float

    def __post_init__(self):
        if self.accepted != len(self.samples) or self.accepted > self.trials:
            raise ParameterDomainError("inconsistent sample accounting")


class _IndexTables:
    """Truncated per-index inverse-CDF tables for Z_1..Z_n: cum[i] is the
    cumulative pmf of Z_i on 0..n // i, kept where P(Z_i = 0) < 1."""

    def __init__(self, spec: StructureSpec, n: int, params: TiltedParams):
        params.validate(spec)
        self.n = n
        rows = z_pmf_rows(spec, range(1, n + 1), n // np.arange(1, n + 1), params)
        self.cum = {i: np.cumsum(row) for i, row in enumerate(rows, start=1)
                    if row[0] < 1.0}

    def draw_block(self, rng: np.random.Generator, block: int):
        """Returns (T, u) for `block` trials: T of every trial and the
        uniforms of the accepted ones (T = n), one row per trial.

        Z_i is the number of cum[i] entries at or below the trial's uniform
        at index i; a draw past n // i (the mass beyond the truncated
        support) adds n + 1, so that trial has T > n for sure.
        """
        u = rng.random((block, self.n))
        t = np.zeros(block, dtype=np.int64)
        for i, cum in self.cum.items():
            z = np.searchsorted(cum, u[:, i - 1], side="right")
            t += np.where(z < len(cum), i * z, self.n + 1)
        return t, u[t == self.n]


@dataclass
class _PrefixTable:
    """The lower triangle of q[i, r] = P(T_i = r), 0 <= i <= r <= n, packed
    by column: qc[tri[r] + i] = q[i, r], tri[r] = r (r + 1) / 2, followed by
    n + 1 zeros, q[i, n + 1] = 0 for i <= n, which a remainder of -1 reads
    (tri[-1] = tri[n + 1]).  An entry above the diagonal, r < i, is
    q[r, r] exp(lz[i] - lz[r]): no index above r adds to T_i = r, so it is
    q[r, r] times P(Z_m = 0) for r < m <= i.  lz[i] sums log P(Z_m = 0)
    over m <= i, leaving out the m where P(Z_m = 0) underflows to 0; zl[i]
    is the last such m <= i (0 if none), and q[i, r] = 0 for r < zl[i].
    pk[off[i]:off[i+1]] = P(Z_i = k) as sumdist.prefix_pmfs yields it, the
    very factors whose products q[i] sums, so pk[off[i]] = P(Z_i = 0)
    (index 0 holds [1]); n zeros follow the last row."""

    qc: np.ndarray
    tri: np.ndarray
    lz: np.ndarray
    zl: np.ndarray
    pk: np.ndarray
    off: np.ndarray


_ROWS = 64  # prefix rows written into their columns at a time


def _prefix_table(spec: StructureSpec, n: int,
                  params: TiltedParams) -> _PrefixTable:
    def build():
        tri = np.arange(n + 2) * np.arange(1, n + 3) // 2
        qc = np.zeros(tri[-1] + n + 1)
        block = np.zeros((_ROWS, n + 1))  # rows i0, i0 + 1, ... of q
        block[0, 0] = 1.0
        rows = [np.ones(1)]
        at = np.empty((n + 1, _ROWS), dtype=np.int64)  # scatter scratch
        tr = np.empty((n + 1, _ROWS))

        def flush(i0, i1):  # rows i0..i1-1 into the columns r >= i0
            for r in range(i0, i1 - 1):  # the columns that end in the block
                qc[tri[r] + i0: tri[r] + r + 1] = block[: r + 1 - i0, r]
            cols = n + 2 - i1  # the columns r >= i1 - 1 take every row
            np.add(tri[i1 - 1: n + 1, None], np.arange(i0, i1),
                   out=at[:cols, : i1 - i0])
            tr[:cols, : i1 - i0] = block[: i1 - i0, i1 - 1:].T
            qc[at[:cols, : i1 - i0]] = tr[:cols, : i1 - i0]

        i0 = 0
        for i, pk_i, p in sumdist.prefix_pmfs(spec, tuple(range(1, n + 1)),
                                              n, params):
            if i - i0 == _ROWS:
                flush(i0, i)
                i0 = i
            block[i - i0] = p
            rows.append(pk_i)
        flush(i0, n + 1)
        off = np.zeros(n + 2, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=off[1:])
        pk = np.concatenate(rows + [np.zeros(n)])
        p0 = pk[off[:-1]]
        zl = np.maximum.accumulate(np.where(p0 == 0, np.arange(n + 1), 0))
        lz = np.cumsum(np.log(np.where(p0 == 0, 1.0, p0)))
        return _PrefixTable(qc=qc, tri=tri, lz=lz, zl=zl, pk=pk, off=off)
    return spec.table("prefix_pmfs", build, key=(n, params.fx, params.ftheta))


def _q(tab: _PrefixTable, i: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Q[i, r] for 0 <= i, r <= n: the packed entry where i <= r, whose
    factor is exp(0) = 1, and above the diagonal Q[r, r] exp(lz[i] - lz[r])
    where r >= zl[i], 0 below."""
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
    for sure when i > r.  The rows of Q are visited in blocks
    (lo, hi] of _WINDOW indices: in a block each sample reads Q[lo..hi, r],
    one slice of column r, finds its next index J with Z_J > 0 by one
    compare over its window, draws Z_J, and looks again below J with the
    new remainder.
    """
    count, n = u.shape
    qc, tri, pk, off = tab.qc, tab.tri, tab.pk, tab.off
    p0, kmax = pk[off[:-1]], np.diff(off) - 1
    r = np.full(count, n, dtype=np.int64)
    a = np.zeros((count, n), dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(qc, min(_WINDOW, n) + 1)
    for hi in range(n, 0, -_WINDOW):
        lo = max(hi - _WINDOW, 0)
        idx = np.arange(lo + 1, hi + 1)
        window = windows[:, : hi - lo + 1]
        s = np.flatnonzero(r > lo)
        top = np.full(s.size, hi)
        while s.size:
            rs = r[s]
            # qw[:, i - lo] = Q[i, r] for lo <= i <= min(hi, r)
            qw = window[tri[rs] + lo]
            live = (p0[lo + 1: hi + 1] * qw[:, :-1]
                    <= u[s, lo:hi] * qw[:, 1:])
            # an index whose row is [P(Z_i = 0)] has Q[i, r] =
            # P(Z_i = 0) Q[i-1, r], so it draws 0 wherever Q[i, r] > 0
            live &= idx <= np.minimum(rs, top)[:, None]
            has = live.any(axis=1)
            s, rs = s[has], rs[has]
            if not s.size:
                break
            j = hi - np.argmax(live[:, ::-1], axis=1)[has]
            jm = j - 1
            k_cap = np.minimum(rs // j, kmax[j])
            ks = np.arange(int(k_cap.max()) + 1)
            rest = np.where(ks <= k_cap[:, None], rs[:, None] - j[:, None] * ks,
                            -1)
            w = qc[tri[rest] + jm[:, None]]
            # rest >= j for k < k_cap: only k_cap can read above the diagonal
            w[np.arange(j.size), k_cap] = _q(tab, jm, rs - j * k_cap)
            # w = 0 past k_cap, where pk reads on into the next rows
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
    yielded in row blocks of at most _BLOCK.  Stream k draws its rows from
    its own generator, and the block sizes do not change their values."""
    parts, size = [], 0
    for k, want in enumerate(per):
        gen = rng.with_stream(rng.stream + k).generator()
        while want:
            take = min(want, _BLOCK - size)
            parts.append(gen.random((take, n)))
            size += take
            want -= take
            if size == _BLOCK:
                yield np.concatenate(parts)
                parts, size = [], 0
    if size:
        yield np.concatenate(parts)


def sample_components(spec: StructureSpec, n: int, params: TiltedParams,
                      count: int, rng: RngState, streams: int = 1,
                      method: str = "table") -> SampleBatch:
    """Exact draws from the P_theta law of C(n).

    method "table" draws top-down from the cached prefix pmfs (no
    rejection; count = 0 just builds the table); "rejection" draws the
    independent process until T_n = n.  Both refuse to run when
    P_theta(T_n = n) is below 1e-12.  With streams > 1 the samples are split
    over independent substreams (stream indices rng.stream + k) and merged
    in stream order, so the result is deterministic for fixed
    (seed, stream, count, streams).
    """
    if count < 0 or streams < 1:
        raise ParameterDomainError("count must be >= 0 and streams >= 1")
    if method == "table":
        tab = _prefix_table(spec, n, params)
        p_exact = float(tab.qc[tab.tri[n] + n])
    elif method == "rejection":
        p_exact = sumdist.prob_T_eq_n(spec, n, params)
    else:
        raise ParameterDomainError(f"unknown method {method!r}")
    if p_exact < _UNDERFLOW_GUARD:
        raise NumericGuardError(
            f"acceptance probability {p_exact:.3g} below {_UNDERFLOW_GUARD}; "
            "choose a better x")
    per = [count // streams + (1 if k < count % streams else 0)
           for k in range(streams)]
    if method == "table":
        samples = [v for u in _uniform_rows(rng, per, n)
                   for v in ComponentVector.from_rows(n, _draw_top_down(tab, u))]
        return SampleBatch(samples=samples, trials=count, accepted=count,
                           acceptance_exact=p_exact)
    tabs = spec.table("sampler_tables", lambda: _IndexTables(spec, n, params),
                      key=(n, params.fx, params.ftheta))
    results = [_sample_stream(tabs, n, want, rng.with_stream(rng.stream + k))
               for k, want in enumerate(per)]
    samples: list[ComponentVector] = []
    trials = 0
    for got, used in results:  # merged in stream order: deterministic
        samples.extend(got)
        trials += used
    return SampleBatch(samples=samples, trials=trials, accepted=len(samples),
                       acceptance_exact=p_exact)


def _sample_stream(tabs: _IndexTables, n: int, want: int, rng_state: RngState):
    """want accepted draws of one stream and the trials they took: every
    trial of a block, or up to the want-th acceptance in the last one."""
    rng = rng_state.generator()
    out: list[ComponentVector] = []
    trials = 0
    while len(out) < want:
        t, u = tabs.draw_block(rng, _BLOCK)
        take = min(len(u), want - len(out))
        trials += (int(np.flatnonzero(t == n)[take - 1]) + 1
                   if take == want - len(out) else _BLOCK)
        a = np.zeros((take, n), dtype=np.int64)
        for i, cum in tabs.cum.items():
            a[:, i - 1] = np.searchsorted(cum, u[:take, i - 1], side="right")
        out.extend(ComponentVector.from_rows(n, a))
    return out, trials


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
    E D*_n with reduced variance and no extra randomness.
    """

    columns: dict
    n: int

    def summary(self) -> dict:
        out = {}
        for name, col in self.columns.items():
            col = np.asarray(col, dtype=float)
            mean = float(col.mean())
            var = float(col.var(ddof=1)) if len(col) > 1 else 0.0
            out[name] = {"mean": mean, "var": var,
                         "se": math.sqrt(var / len(col)) if len(col) > 1 else 0.0}
        return out


def statistics(samples: Iterable[ComponentVector]) -> StatsTable:
    samples = list(samples)
    if not samples:
        raise ParameterDomainError("empty sample batch")
    n = samples[0].n
    a = np.array([v.a for v in samples], dtype=np.int64)
    sizes = np.arange(1, n + 1)
    present = a > 0
    K, J = a.sum(axis=1), present.sum(axis=1)
    L = np.where(J > 0, n - np.argmax(present[:, ::-1], axis=1), 0)
    # the sums stay integers and are divided once, so each value is the
    # float(sum) / k (or / n) of one sample, and the summary prints the same
    D = np.where(K > 0, (a @ sizes) / np.maximum(K, 1), 0.0)
    Dstar = (a @ (sizes * sizes)) / n
    return StatsTable(columns={"K": K.tolist(), "L": L.tolist(),
                               "J": J.tolist(), "D": D.tolist(),
                               "Dstar": Dstar.tolist()}, n=n)

