"""Exact samplers for C(n) and the refined D(n).

C(n) is the independent process (Z_1, ..., Z_n) conditioned on T_n = n, with
T_i = Z_1 + 2 Z_2 + ... + i Z_i.  Two routes draw it.

The table route (the default, method="table") draws without rejection by
the recursive method of Nijenhuis and Wilf.  With Q[i, r] = P(T_i = r),

    P(Z_i = k | T_i = r) = P(Z_i = k) Q[i-1, r - i k] / Q[i, r],

so Z_n, Z_{n-1}, ..., Z_1 are drawn in turn from the remainder r that the
larger indices left, starting at r = n: one uniform per index and one
inverse-CDF compare over k <= r // i, at most sum_i (n // i + 1) =
O(n log n) weights per sample.  The remainder ends at 0, so every draw is
accepted and trials = accepted = count.  Stream k's uniforms are the rows
of one (count_k, n) matrix from its own generator; all streams go through
one top-down pass, in blocks of at most _BLOCK samples, and the block size
bounds memory without changing a sample.  The rows of Q are the
prefix pmfs of the strided update behind the selection convolution
(sumdist.prefix_pmfs), built once per (n, x, theta) and cached on the spec;
the table takes 8 (n+1)(n+2) bytes: 8 MB at n = 1000, 128 MB at n = 4000.
acceptance_exact is read off the table as Q[n, n] = P(T_n = n).

Underflowed table entries cannot bias the law.  A state (i, r) is reached
with probability P(T_i = r) P(T_n - T_i = n - r) / P(T_n = n), which is at
most P(T_i = r) / P(T_n = n) <= 1e12 P(T_i = r) because both routes refuse
P(T_n = n) < 1e-12.  So a state whose entry underflows (below 2.2e-308)
is reached with probability below 2.2e-296.  A weight of exactly 0 is
never chosen, and each weight is the product the table summed, so every
state reached has a positive row sum.

The rejection route (method="rejection") is the independent check: draw
the independent process, keep it when T_n = n.  Per-index draws use
inverse-CDF lookup on the truncated laws of Z_i (support 0..n//i; anything
beyond forces T > n and is lumped into an immediate-reject marker), so
huge m_i never touch integer-width limits and all three kinds share one
code path.  Trials are processed in fixed-size vectorized blocks: a block
of uniforms is compared against P(Z_i = 0) in one shot and only the rare
exceedances take the scalar path.  Its acceptance_exact is
sumdist.prob_T_eq_n, computed independently of the table.

Streams are the unit of reproducibility: stream k of seed s is
Generator(Philox(SeedSequence(s, spawn_key=(k,)))), the counter-based
Philox generator, and identical (seed, stream, count, streams) gives
identical output on either route.  The rejection route runs its streams on
min(streams, os.cpu_count()) worker threads; the table route draws every
stream in the calling thread, so worker count never changes a result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericGuardError, ParameterDomainError
from .structures import ComponentVector, Kind, StructureSpec
from .indep_process import TiltedParams, z_law
from . import sumdist

_BLOCK = 4096  # rejection: trials per block, fixed for reproducibility;
               # table: samples per block, a memory bound only
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
    """Truncated per-index inverse-CDF tables for Z_1..Z_n."""

    def __init__(self, spec: StructureSpec, n: int, params: TiltedParams):
        params.validate(spec)
        self.n = n
        self.cdf0 = np.ones(n)          # P(Z_i = 0), column i-1
        self.cum: dict[int, np.ndarray] = {}
        for i in range(1, n + 1):
            if spec.m(i) == 0:
                continue
            law = z_law(spec, i, params)
            k_max = n // i
            pmf = law.pmf_array(k_max)
            self.cdf0[i - 1] = pmf[0]
            if pmf[0] < 1.0:
                self.cum[i] = np.cumsum(pmf)

    def draw_block(self, rng: np.random.Generator, block: int):
        """Returns (T, rows, cols, zs) for `block` trials.

        Censored trials (some Z_i beyond its truncated support, so T > n for
        sure) get T = n + 1; (rows, cols, zs) list the nonzero draws.
        """
        u = rng.random((block, self.n))
        t = np.zeros(block, dtype=np.int64)
        rows, cols = np.nonzero(u >= self.cdf0[None, :])
        zs = np.zeros(len(rows), dtype=np.int64)
        censored = np.zeros(block, dtype=bool)
        for col in np.unique(cols):
            i = int(col) + 1
            sel = cols == col
            cum = self.cum.get(i)
            if cum is None:  # mass above 0 below double resolution
                continue
            z = np.searchsorted(cum, u[rows[sel], col], side="right")
            over = z > self.n // i
            if over.any():
                censored[rows[sel][over]] = True
                z = np.where(over, 0, z)
            zs[sel] = z
            np.add.at(t, rows[sel], i * z)
        t[censored | (t > self.n)] = self.n + 1
        return t, rows, cols, zs


def _tables(spec: StructureSpec, n: int, params: TiltedParams) -> _IndexTables:
    key = ("sampler_tables", n, params.fx, params.ftheta)
    tabs = spec._table_cache.get(key)
    if tabs is None:
        tabs = _IndexTables(spec, n, params)
        spec._table_cache[key] = tabs
    return tabs


@dataclass
class _PrefixTable:
    """q[i, r] = P(T_i = r) for i, r = 0..n, with q[i, n+1] = 0 so that a
    negative remainder clipped to -1 reads a zero; pk[i] = P(Z_i = k) as
    sumdist.prefix_pmfs yields it, the very factors whose products q[i]
    sums."""

    q: np.ndarray
    pk: list


def _prefix_table(spec: StructureSpec, n: int,
                  params: TiltedParams) -> _PrefixTable:
    key = ("prefix_pmfs", n, params.fx, params.ftheta)
    tab = spec._table_cache.get(key)
    if tab is None:
        q = np.zeros((n + 1, n + 2))
        q[0, 0] = 1.0
        pk = [None]
        for i, pk_i, p in sumdist.prefix_pmfs(spec, tuple(range(1, n + 1)),
                                              n, params):
            q[i, : n + 1] = p
            pk.append(pk_i)
        tab = _PrefixTable(q=q, pk=pk)
        spec._table_cache[key] = tab
    return tab


def _draw_top_down(tab: _PrefixTable, u: np.ndarray) -> np.ndarray:
    """a[s, i-1] = Z_i of sample s, drawn from C(n) with u[s, i-1] at index i.

    At index i every sample picks k with weights P(Z_i = k) Q[i-1, r - i k]
    (zero for r < i k): k is the number of cumulative weights at or below u
    times their total.  A sample with r < i has only k = 0 left.
    """
    count, n = u.shape
    r = np.full(count, n, dtype=np.int64)
    a = np.zeros((count, n), dtype=np.int64)
    ks = np.arange(n + 1)
    for i in range(n, 0, -1):
        pk = tab.pk[i]
        k_cap = min(int(r.max()) // i, len(pk) - 1)
        if k_cap == 0:
            continue
        rest = np.maximum(r[:, None] - i * ks[: k_cap + 1], -1)
        cum = (pk[: k_cap + 1] * tab.q[i - 1][rest]).cumsum(axis=1)
        k = (cum <= (u[:, i - 1] * cum[:, -1])[:, None]).sum(axis=1)
        a[:, i - 1] = k
        r -= i * k
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
        p_exact = float(tab.q[n, n])
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
        samples = [ComponentVector(n=n, a=tuple(row))
                   for u in _uniform_rows(rng, per, n)
                   for row in _draw_top_down(tab, u).tolist()]
        return SampleBatch(samples=samples, trials=count, accepted=count,
                           acceptance_exact=p_exact)
    tabs = _tables(spec, n, params)
    jobs = [(tabs, n, want, rng.with_stream(rng.stream + k))
            for k, want in enumerate(per)]
    if streams > 1:
        workers = min(streams, os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda j: _sample_stream(*j), jobs))
    else:
        results = [_sample_stream(*j) for j in jobs]
    samples: list[ComponentVector] = []
    trials = 0
    for got, used in results:  # merged in stream order: deterministic
        samples.extend(got)
        trials += used
    return SampleBatch(samples=samples, trials=trials, accepted=len(samples),
                       acceptance_exact=p_exact)


def _sample_stream(tabs: _IndexTables, n: int, want: int, rng_state: RngState):
    rng = rng_state.generator()
    out: list[ComponentVector] = []
    trials = 0
    while len(out) < want:
        t, rows, cols, zs = tabs.draw_block(rng, _BLOCK)
        hits = np.nonzero(t == n)[0]
        consumed = _BLOCK
        keep = np.isin(rows, hits)
        per_row: dict[int, list[tuple[int, int]]] = {}
        for r, c, z in zip(rows[keep].tolist(), cols[keep].tolist(),
                           zs[keep].tolist()):
            if z:
                per_row.setdefault(r, []).append((c + 1, z))
        for row in hits.tolist():
            a = [0] * n
            for i, z in per_row.get(row, ()):
                a[i - 1] = z
            out.append(ComponentVector(n=n, a=tuple(a)))
            if len(out) == want:
                consumed = row + 1
                break
        trials += consumed
    return out[:want], trials


def draw_T(spec: StructureSpec, n: int, params: TiltedParams, count: int,
           rng: RngState) -> np.ndarray:
    """Unconditioned draws of T_n (values above n reported as n + 1)."""
    tabs = _tables(spec, n, params)
    gen = rng.generator()
    outs = []
    left = count
    while left > 0:
        t, _, _, _ = tabs.draw_block(gen, _BLOCK)
        outs.append(t[: min(left, _BLOCK)])
        left -= _BLOCK
    return np.concatenate(outs)[:count]


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
    K, L, J, D, Dstar = [], [], [], [], []
    for v in samples:
        a = np.asarray(v.a)
        sizes = np.nonzero(a)[0] + 1
        k = int(a.sum())
        K.append(k)
        L.append(int(sizes.max()) if len(sizes) else 0)
        J.append(len(sizes))
        D.append(float(np.dot(sizes, a[sizes - 1])) / k if k else 0.0)
        Dstar.append(float(np.dot(sizes * sizes, a[sizes - 1])) / n)
    return StatsTable(columns={"K": K, "L": L, "J": J, "D": D, "Dstar": Dstar},
                      n=n)


def size_biased_pmf_estimate(samples: Iterable[ComponentVector]) -> np.ndarray:
    """Average of i a_i / n across samples: estimates P(D*_n = i), i = 1..n."""
    samples = list(samples)
    if not samples:
        raise ParameterDomainError("empty sample batch")
    n = samples[0].n
    acc = np.zeros(n)
    for v in samples:
        acc += np.arange(1, n + 1) * np.asarray(v.a) / n
    return acc / len(samples)
