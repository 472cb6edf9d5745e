"""Exactness, determinism, and statistics of the table and rejection samplers."""

import hashlib
import json
import math
import statistics as pystats
import sys
import textwrap
import threading
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy.stats import chisquare

from combstruct import structures as st
from combstruct import sumdist as sd
from combstruct import oracle as orc
from combstruct import moments as mom
from combstruct import sampler as smp
from combstruct.errors import NumericGuardError, ParameterDomainError
from combstruct.indep_process import TiltedParams, choose_x, solve_xex
from combstruct.sampler import (RngState, draw_T, sample_by_rejection,
                                sample_components, sample_refined, statistics)
from cli_helpers import run_for_peak_rss, write_specs

PERM = st.permutations()
# the production route and its independent check, by the ids of their tests
SAMPLERS = {"table": sample_components, "rejection": sample_by_rejection}


def chi_square_pvalue(samples, law):
    """Goodness of fit of sampled component vectors against an exact law,
    pooling cells with expected count below 5."""
    n_obs = len(samples)
    counts = {}
    for v in samples:
        counts[v.a] = counts.get(v.a, 0) + 1
    cells = sorted(law.entries, key=lambda a: -law.entries[a])
    obs, exp = [], []
    pool_o = pool_e = 0.0
    for a in cells:
        e = float(law.prob(a)) * n_obs
        o = counts.get(a, 0)
        if e < 5:
            pool_o += o
            pool_e += e
        else:
            obs.append(o)
            exp.append(e)
    if pool_e > 0:
        obs.append(pool_o)
        exp.append(pool_e)
    exp = np.array(exp) * (sum(obs) / sum(exp))
    return chisquare(np.array(obs), exp).pvalue


class TestSampleComponents:
    def test_weight_one_trivial(self):
        batch = sample_components(PERM, 1, TiltedParams(1, 1), 50, RngState(0))
        assert all(v.a == (1,) for v in batch.samples)

    def test_every_sample_complete(self):
        batch = sample_components(st.integer_partitions(), 9,
                                  TiltedParams(0.5, 1), 300, RngState(5))
        assert all(v.complete for v in batch.samples)

    def test_acceptance_rate_perm_n3(self):
        params = TiltedParams(1, 1)
        batch = sample_by_rejection(PERM, 3, params, 16000, RngState(11))
        p = math.exp(-11 / 6)
        assert batch.acceptance_exact == pytest.approx(p, rel=1e-12)
        se = math.sqrt(p * (1 - p) / batch.trials)
        assert abs(batch.accepted / batch.trials - p) <= 3 * se

    def test_trials_accounting(self):
        params = TiltedParams(0.5, 1)
        batch = sample_by_rejection(st.distinct_partitions(), 8, params, 4000,
                                    RngState(21))
        p = batch.acceptance_exact
        slack = 4 * math.sqrt(batch.trials * p * (1 - p))
        assert abs(batch.accepted - batch.trials * p) <= slack + 1

    def test_determinism(self):
        a = sample_components(PERM, 6, TiltedParams(1, 1), 500, RngState(3, 2))
        b = sample_components(PERM, 6, TiltedParams(1, 1), 500, RngState(3, 2))
        assert [v.a for v in a.samples] == [v.a for v in b.samples]
        assert a.trials == b.trials
        c = sample_components(PERM, 6, TiltedParams(1, 1), 500, RngState(3, 9))
        assert [v.a for v in c.samples] != [v.a for v in a.samples]

    def test_stream_split_deterministic(self):
        a = sample_components(PERM, 6, TiltedParams(1, 1), 301, RngState(3),
                              streams=3)
        b = sample_components(PERM, 6, TiltedParams(1, 1), 301, RngState(3),
                              streams=3)
        assert [v.a for v in a.samples] == [v.a for v in b.samples]
        assert a.accepted == 301

    # the table route keeps the bare case ids
    @pytest.mark.parametrize("spec,params,theta,sample", [
        pytest.param(*case, sample,
                     id=f"spec{j}-params{j}-{case[2]}"
                        + ("" if route == "table" else "-rejection"))
        for route, sample in SAMPLERS.items()
        for j, case in enumerate([
            (PERM, TiltedParams(1, 1), 1),
            (st.integer_partitions(), TiltedParams(0.6, 1), 1),
            (st.distinct_partitions(), TiltedParams(1.0, 1), 1),
            (PERM, TiltedParams(1, 2), 2),
            (st.integer_partitions(), TiltedParams(0.4, 2), 2),
            (st.distinct_partitions(), TiltedParams(1.0, 2), 2),
            # binomial m_i > 1 and m_i = 0 gaps
            (st.from_m_list("selection", [2, 0, 3, 1, 0, 2]),
             TiltedParams(0.8, 1), 1),
        ])
    ])
    def test_chi_square_small_n(self, spec, params, theta, sample):
        n = 6
        law = orc.exact_joint_law(spec, n, theta)
        batch = sample(spec, n, params, 20000, RngState(123))
        assert chi_square_pvalue(batch.samples, law) > 1e-3

    def test_underflow_guard(self):
        with pytest.raises(NumericGuardError):
            sample_components(PERM, 60, TiltedParams(0.3, 1), 1, RngState(0))

    @pytest.mark.parametrize("sample", SAMPLERS.values(), ids=list(SAMPLERS))
    def test_overflowing_tilt_is_numeric_guard(self, sample):
        with pytest.raises(NumericGuardError):
            sample(PERM, 60, TiltedParams(1e6, 1), 1, RngState(0))

    @pytest.mark.parametrize("sample", SAMPLERS.values(), ids=list(SAMPLERS))
    def test_no_structure_of_weight_n_is_domain_error(self, sample):
        # components of size 2 only: P(T_7 = 7) = 0 at every x
        spec = st.from_m_list("multiset", [0, 3])
        with pytest.raises(ParameterDomainError,
                           match="^no structures of weight 7$"):
            sample(spec, 7, TiltedParams(0.5, 1), 3, RngState(0))


class TestBothFunctionsOnCustomSpecs:
    # a random m list of each kind: both functions refuse it where no
    # structure weighs n, and draw complete vectors of it elsewhere
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hs.sampled_from(["assembly", "multiset", "selection"]),
           hs.lists(hs.integers(0, 3), min_size=1, max_size=6),
           hs.integers(1, 10), hs.sampled_from([Fraction(1, 2), 1, 2]))
    def test_refused_or_complete(self, kind, m, n, theta):
        spec = st.from_m_list(kind, m)
        params = TiltedParams(0.4 if kind == "multiset" else 1, theta)
        if not sd.has_weight(spec, n):
            for sample in SAMPLERS.values():
                with pytest.raises(ParameterDomainError):
                    sample(spec, n, params, 3, RngState(1))
            return
        exact = []
        for sample in SAMPLERS.values():
            batch = sample(spec, n, params, 3, RngState(1))
            assert batch.accepted == len(batch.samples) == 3
            assert all(v.complete and st.count_N(spec, v) > 0
                       for v in batch.samples)
            again = sample(spec, n, params, 3, RngState(1))
            assert [v.a for v in again.samples] == [v.a for v in batch.samples]
            exact.append(batch.acceptance_exact)
        assert exact[0] == pytest.approx(exact[1], rel=1e-12)


class TestTableRoute:
    @pytest.mark.parametrize("spec,n,how", [
        (PERM, 300, 1.0), (st.esf(2), 1000, "exact_mean"),
        (st.set_partitions(), 1000, "set_partition"),
        (st.integer_partitions(), 1000, "integer_partition"),
        (st.distinct_partitions(), 1000, "distinct_partition"),
        (st.from_m_list("selection", [0, 2, 1, 0, 3] * 12), 60, 0.9),
        # m_i up to ~2^i / i: the negative-binomial pmfs at big m
        (st.polynomials(2), 64, 0.5), (st.polynomials(2), 1000, "exact_mean"),
        (st.necklaces(2), 1000, "exact_mean"),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_acceptance_exact_matches_prob_T(self, spec, n, how):
        x = choose_x(spec, n, 1, how) if isinstance(how, str) else how
        params = TiltedParams(x, 1)
        batch = sample_components(spec, n, params, 0, RngState(0))
        want = sd.prob_T_eq_n(spec, n, params)
        assert batch.acceptance_exact == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec,how", [
        (st.set_partitions(), "set_partition"),
        (st.integer_partitions(), "integer_partition"),
    ], ids=["set_partitions", "integer_partitions"])
    def test_mean_K_n1000(self, spec, how):
        # E K = sum_j E C_j(n); the terms share one float p_theta table
        # above the exact cutoff, kept on the spec
        n = 1000
        params = TiltedParams(choose_x(spec, n, 1, how), 1)
        expected = math.fsum(mom.factorial_moment_single(spec, n, j, 1, params)
                             for j in range(1, n + 1))
        batch = sample_components(spec, n, params, 1000, RngState(77))
        ks = [v.num_components for v in batch.samples]
        se = pystats.stdev(ks) / math.sqrt(len(ks))
        assert abs(pystats.mean(ks) - expected) <= 5 * se

    def test_count_above_block(self, monkeypatch):
        spec, n, params = st.integer_partitions(), 10, TiltedParams(0.6, 1)
        count = smp._block_rows(n) + 101
        a = sample_components(spec, n, params, count, RngState(5), streams=2)
        b = sample_components(spec, n, params, count, RngState(5), streams=2)
        assert a.trials == a.accepted == count
        assert all(v.complete for v in a.samples)
        assert [v.a for v in a.samples] == [v.a for v in b.samples]
        # the block size bounds memory only: smaller blocks, same samples
        monkeypatch.setattr(smp, "_BLOCK_BYTES", 97 * 8 * n)
        assert smp._block_rows(n) == 97
        c = sample_components(spec, n, params, count, RngState(5), streams=2)
        assert [v.a for v in c.samples] == [v.a for v in a.samples]

    def test_working_set_per_block(self):
        # above the result, one block at a time holds its uniforms, its
        # counts in uint16 and the temporaries of one row window (0.56 MB
        # here, the 0.52 MB of uniforms aside); a second copy of the
        # uniforms, int64 counts, a list of lists of them or two blocks at
        # once would exceed the bound.  580 samples take blocks of 218, 218
        # and 144, the second stream starting inside the second
        spec, n, count = st.set_partitions(), 300, 580
        params = TiltedParams(choose_x(spec, n, 1, "set_partition"), 1)
        sample_components(spec, n, params, count, RngState(0), streams=2)
        tracemalloc.start()
        try:
            batch = sample_components(spec, n, params, count, RngState(1),
                                      streams=2)
            result, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = smp._block_rows(n)
        assert batch.accepted == count and rows == 218 and 2 * rows < count
        assert peak - result < 8 * rows * n + 0.75 * 2**20

    @staticmethod
    def cli_sample_peak(tmp_path, n, count, digest):
        """`sample` on set_partitions at n with count samples and the
        exact-mean x, in a fresh interpreter with glibc's mmap threshold at
        1 MiB: asserts exit 0, the weight of each sample, the K row of the
        statistics and the sha256 of stdout; returns peak RSS in kB."""
        argv = ["sample", "--spec", write_specs(tmp_path)["setpartitions"],
                "--n", str(n), "--samples", str(count), "--seed", "3",
                "--format", "json"]
        script = textwrap.dedent("""
            import contextlib, hashlib, io, json, sys
            from combstruct import cli
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(json.loads(sys.argv[1]))
            text = buf.getvalue()
            doc = json.loads(text)
            weights = [sum(int(i) * int(a) for i, a in
                           (part.split(":") for part in row["sample"].split()))
                       for row in doc["table"]]
            result = [code, weights, doc["table1"][0],
                      hashlib.sha256(text.encode()).hexdigest()]
        """)
        (code, weights, k_row, sha), peak_kb = run_for_peak_rss(
            script, json.dumps(argv),
            env={"MALLOC_MMAP_THRESHOLD_": "1048576"})
        assert code == 0 and weights == [n] * count
        assert k_row["stat"] == "K" and k_row["mean"] > 0
        assert sha == digest  # the bytes printed before blocks streamed
        return peak_kb

    def test_cli_n4000_in_bounded_memory(self, tmp_path):
        # 2000 samples: the 32 MB half table, one block of 64 samples (2 MB
        # of uniforms, its counts in uint16) and the five statistics
        # columns.  Peak RSS measured on a 2-vCPU host: 74 MB (153 MB with
        # every sample held as an n-tuple beside a count matrix of them all
        # in statistics, 184 MB with the whole 64 MB lower triangle)
        peak_kb = self.cli_sample_peak(
            tmp_path, 4000, 2000,
            "0aca915029f84179d7d089167586522af23ee1a65ee24c5097bbbdc2956f0ce4")
        if sys.platform.startswith("linux"):
            assert peak_kb < 100 * 1024

    def test_cli_n1000_8000_samples_hold_no_tuples(self, tmp_path):
        # 8000 samples in blocks of 65: the 2 MB half table and one block.
        # Peak RSS measured on a 2-vCPU host: 45 MB (126 MB with 8000
        # dense n-tuples and their count matrix)
        peak_kb = self.cli_sample_peak(
            tmp_path, 1000, 8000,
            "471edd7e4979d9a6ac8f4dd21ffd6744bd1c12f64e300c1713a13cc2f9e6d2fa")
        if sys.platform.startswith("linux"):
            assert peak_kb < 70 * 1024

    def test_cli_n16000_holds_half_the_triangle(self, tmp_path):
        # 20 samples: nearly all of the peak is the 512 MB half table.
        # Peak RSS measured on a 2-vCPU host: 535 MB (1,023 MB with the
        # whole 1.02 GB lower triangle)
        peak_kb = self.cli_sample_peak(
            tmp_path, 16000, 20,
            "6e5d85610f0b4e6de725f9b404547702bdd11375e5b305d91e3fa87add31c33d")
        if sys.platform.startswith("linux"):
            assert peak_kb < 640 * 1024


TABLE_PINNED = [
    # spec, n, x, count, streams, seed, samples per block (None: the
    # default budget, _block_rows(n)), sha256 of the sample tuples
    (PERM, 300, 1.0, 40, 1, 1, None,
     "98140e588f828511292c2d94765ff23b9503a54fa1d0c529505204b2b33c57f8"),
    (st.integer_partitions(), 1000, 0.96, 20, 2, 2, None,
     "cf0eeb3cd8db8d0895b0618d4fbfd17d6e17a8774c051c267c0fb79880c2af09"),
    # m_i = 0 at every even i: rows [1] with no draw
    (st.distinct_odd_partitions(), 400, 0.98, 60, 1, 3, None,
     "0ae22101e61f118594d2021e6f3f08fb0715ef0861e2cd51a1ca62ff53d9d00d"),
    (st.from_m_list("selection", [0, 2, 1, 0, 3] * 12), 60, 0.9, 200, 3, 4,
     None, "da9923a430df9deab9ec71bf7766985743a9ef4632791de1691a68003ff69cc6"),
    (st.polynomials(2), 64, 0.5, 100, 1, 5, None,
     "f4cb3d339a55f163242612bb73d142df3bd3887b75133cce941f26a8c6900594"),
    # 250 samples in blocks of 97
    (st.set_partitions(), 200, 4.0, 250, 3, 6, 97,
     "8a38a0c75a811b3e51ed919a2b70940e26a029dbbcfd5298f440358e7945019a"),
    # 1200 samples in blocks of the default size at n = 2000, the floor of
    # 64 (18 of 64 and one of 48), the second stream starting inside the
    # tenth block
    (st.set_partitions(), 2000, 5.8, 1200, 2, 7, None,
     "08fa1c63b237a6db46339ffdf16529dc6e7ed15ab39b46907ba1b9c45cbbd7cd"),
    # a block of 2 samples: one row window of all n indices
    (st.integer_partitions(), 1000, 0.96, 2, 2, 8, None,
     "77ded58df19c66bd5eb73b9f0ca21ac5432cccc89f7cee4f630a01763d3f9c74"),
]
TABLE_PINNED_IDS = ["permutations", "integer_partitions",
                    "distinct_odd_partitions", "selection", "polynomials2",
                    "count_above_block", "default_blocks_n2000",
                    "widened_window_n1000"]


class TestTablePinned:
    # sha256 of the table route's sample tuples, pinned so that a rewrite of
    # the top-down draw keeps every sample
    @pytest.mark.parametrize("spec,n,x,count,streams,seed,block,digest",
                             TABLE_PINNED, ids=TABLE_PINNED_IDS)
    def test_samples(self, spec, n, x, count, streams, seed, block, digest,
                     monkeypatch):
        if block is not None:
            monkeypatch.setattr(smp, "_BLOCK_BYTES", block * 8 * n)
        batch = sample_components(spec, n, TiltedParams(x, 1), count,
                                  RngState(seed), streams=streams)
        assert batch.trials == batch.accepted == count
        tuples = repr([v.a for v in batch.samples]).encode()
        assert hashlib.sha256(tuples).hexdigest() == digest

    def test_n2000_pin_spans_default_blocks(self):
        # the default_blocks_n2000 pin crosses 18 block edges at the floor,
        # and its two streams of 600 meet inside a block
        rows = smp._block_rows(2000)
        assert rows == smp._BLOCK_FLOOR == 64
        assert 1200 // rows == 18 and 600 % rows and 1200 % rows

    def test_n1000_pin_takes_one_window(self):
        # the widened_window_n1000 pin's block of 2 reads all 1000 indices
        # in one row window, not in windows of _WINDOW
        assert smp._WINDOW < 1000 <= smp._WINDOW_CELLS // 2

    # the row-block width changes the work per block, not a sample: with
    # _WINDOW_CELLS = 0 the width is min(_WINDOW, n), here 1, 7 and n
    @pytest.mark.parametrize("spec,n,x,count,streams,seed,block,digest",
                             TABLE_PINNED[2:5], ids=TABLE_PINNED_IDS[2:5])
    @pytest.mark.parametrize("window", [1, 7, 10**6])
    def test_window_changes_no_sample(self, spec, n, x, count, streams, seed,
                                      block, digest, window, monkeypatch):
        monkeypatch.setattr(smp, "_WINDOW", window)
        monkeypatch.setattr(smp, "_WINDOW_CELLS", 0)
        batch = sample_components(spec, n, TiltedParams(x, 1), count,
                                  RngState(seed), streams=streams)
        tuples = repr([v.a for v in batch.samples]).encode()
        assert hashlib.sha256(tuples).hexdigest() == digest


class TestOneTablePerSlot:
    def test_five_x_values_keep_one_table_per_slot(self):
        spec, n = st.permutations(), 40
        first = None
        for x in (0.999, 0.9995, 1.0, 1.0005, 1.001):
            for sample in SAMPLERS.values():
                sample(spec, n, TiltedParams(x, 1), 2, RngState(0))
            if first is None:
                first = weakref.ref(spec._table_cache["prefix_pmfs"].qc)
        slots = [str(k) for k in spec._table_cache]
        assert sum("prefix_pmfs" in k for k in slots) == 1
        assert sum("sampler_tables" in k for k in slots) == 1
        assert spec._table_keys["prefix_pmfs"] == (n, 1.001, 1.0)
        assert first() is None

    def test_n2000_in_a_fresh_interpreter(self):
        # sampling permutations at n = 2000 at five x holds one prefix-pmf
        # table, not five, so the cache ends with 4 entries (log m, log k!,
        # log P(Z_i = 0), prefix pmfs).  The table keeps the half of the
        # lower triangle of Q that the draw reads, packed: 8 ((n+1)^2 // 4
        # + 2 (n+1)) bytes, 8 MB (16 MB with the whole lower triangle).
        # Peak RSS measured on a 2-vCPU host: 46.2 MB (54.0 MB with the
        # whole lower triangle, 68.3 MB with the full 32 MB table, 117 MB
        # when all five packed tables are kept)
        script = textwrap.dedent("""
            from combstruct import structures, sampler
            from combstruct.indep_process import TiltedParams
            spec, n = structures.permutations(), 2000
            complete = True
            for x in (0.999, 0.9995, 1.0, 1.0005, 1.001):
                batch = sampler.sample_components(
                    spec, n, TiltedParams(x, 1), 5, sampler.RngState(1))
                complete = complete and all(v.complete for v in batch.samples)
            result = [complete, len(spec._table_cache),
                      spec._table_cache["prefix_pmfs"].qc.nbytes]
        """)
        (complete, slots, nbytes), peak_kb = run_for_peak_rss(
            script, env={"MALLOC_MMAP_THRESHOLD_": "1048576"})
        n = 2000
        assert complete and slots == 4
        assert nbytes <= 8 * ((n + 1) ** 2 // 4 + 2 * (n + 1))
        if sys.platform.startswith("linux"):
            assert peak_kb < 100 * 1024

    def test_rebuild_runs_with_the_stale_table_gone(self, monkeypatch):
        spec, n = st.permutations(), 40
        sample_components(spec, n, TiltedParams(0.999, 1), 0, RngState(0))
        first = weakref.ref(spec._table_cache["prefix_pmfs"].qc)
        alive = []
        orig = sd.prefix_pmfs

        def spy(*args):
            alive.append(first() is not None)
            return orig(*args)
        monkeypatch.setattr(sd, "prefix_pmfs", spy)
        sample_components(spec, n, TiltedParams(1.001, 1), 0, RngState(0))
        assert alive == [False]


# P(Z_1 = 0) = 2^-1100 underflows to 0, so Z_1 >= 1 and Q[i, 0] = 0 for
# i >= 1.  At n = E T_n = 1150 the weights at index 2 run up to
# k = n // 2 = 575, whose remainder 0 reads Q[1, 0] above the diagonal.
UNDERFLOW_SPEC = st.from_m_list("selection", [1100, 600])


def dense_prefix(spec, n, params):
    """The full table q[i, r] = P(T_i = r) of sumdist.prefix_pmfs."""
    q = np.zeros((n + 1, n + 1))
    q[0, 0] = 1.0
    for i, _, p in sd.prefix_pmfs(spec, tuple(range(1, n + 1)), n, params):
        q[i] = p
    return q


def reference_draw(tab, u):
    """The top-down draw of _draw_top_down, index by index with no row
    windows: the same products, compares and cumulative sums on the same
    uniforms, so the same samples.  It reads the table through q, which
    asserts that every entry (i, r), 0 <= r <= n, it reads is one the half
    table keeps, and that a weight read above the diagonal reads Q[c, c]
    with c <= (n - 1) / 2 only."""
    count, n = u.shape

    def q(i, r):
        assert 0 <= i <= r <= n and (r == n or i <= n - 1 - r), (i, r)
        return tab.qc[tab.tri[r] + i]

    def q_any(i, r):  # _q's value for one (i, r)
        c = min(i, r)
        assert c == i or 2 * c <= n - 1, (i, r)
        return q(c, r) * np.exp(tab.lz[i] - tab.lz[c]) * (r >= tab.zl[i])

    a = np.zeros((count, n), dtype=np.int64)
    for s in range(count):
        r = n
        for i in range(n, 0, -1):
            if i > r or not q(i - 1, r) * tab.p0[i] <= u[s, i - 1] * q(i, r):
                continue
            k_cap = min(r // i, int(tab.kmax[i]))
            w = [q(i - 1, r - i * k) for k in range(k_cap)]
            w.append(q_any(i - 1, r - i * k_cap))
            w = np.array(w) * tab.pk[tab.off[i]: tab.off[i] + k_cap + 1]
            cum = np.cumsum(w)
            a[s, i - 1] = k = int((cum <= u[s, i - 1] * cum[-1]).sum())
            r -= i * k
        assert r == 0
    return a


def assert_reference_draws_match(spec, n, params, count, streams, seed):
    """sample_components' samples equal reference_draw's on the same
    uniforms, block by block."""
    batch = sample_components(spec, n, params, count, RngState(seed),
                              streams=streams)
    tab = spec._table_cache["prefix_pmfs"]
    per = smp._per_stream(count, streams)
    want = [tuple(row) for u in smp._uniform_rows(RngState(seed), per, n)
            for row in reference_draw(tab, u).tolist()]
    assert [v.a for v in batch.samples] == want


PACKED_CASES = [
    (PERM, 300, 1.0),
    # the edges of a 64-row write: rows 0..62, 0..63 and 0..64
    (PERM, 1, 1.0), (st.integer_partitions(), 63, "integer_partition"),
    (st.set_partitions(), 64, "set_partition"),
    (st.polynomials(2), 65, "exact_mean"),
    (st.integer_partitions(), 300, "integer_partition"),
    (st.set_partitions(), 300, "set_partition"),
    (st.distinct_partitions(), 300, "distinct_partition"),
    (st.esf(2), 300, "exact_mean"),
    (st.polynomials(2), 300, "exact_mean"),
    (st.distinct_odd_partitions(), 300, 0.98),
    (st.from_m_list("selection", [0, 2, 1, 0, 3] * 12), 60, 0.9),
    (UNDERFLOW_SPEC, 1150, 1.0),
]


class TestPackedTable:
    @pytest.mark.parametrize("spec,n,how", PACKED_CASES,
                             ids=lambda v: getattr(v, "name", str(v)))
    def test_every_read_entry_matches_dense(self, spec, n, how):
        x = choose_x(spec, n, 1, how) if isinstance(how, str) else how
        params = TiltedParams(x, 1)
        q = dense_prefix(spec, n, params)
        batch = sample_components(spec, n, params, 0, RngState(0))
        tab = spec._table_cache["prefix_pmfs"]
        assert tab.qc.nbytes <= 8 * ((n + 1) ** 2 // 4 + 2 * (n + 1))
        assert batch.acceptance_exact == q[n, n]
        # the kept entries, Q[i, r] for i <= min(r, n - 1 - r) and column n
        # whole, bit for bit: the only entries with i <= r the draw reads
        # (test_reference_draw_reads_kept_entries holds it to that)
        r, i = np.tril_indices(n + 1)
        kept = (r == n) | (i <= n - 1 - r)
        r, i = r[kept], i[kept]
        assert r.size == (n + 1) ** 2 // 4 + n + 1
        assert np.array_equal(tab.qc[tab.tri[r] + i], q[i, r])
        # a weight reads Q[j-1, r] for r < j - 1 <= n - 1 - r too
        i, r = np.tril_indices(n, -1)
        i, r = i[i <= n - 1 - r], r[i <= n - 1 - r]
        got, want = smp._q(tab, i, r), q[i, r]
        assert np.array_equal(got == 0, want == 0)
        pos = want > 0
        assert np.all(np.abs(got[pos] - want[pos]) <= 1e-12 * want[pos])

    # a block of 24 samples takes one window of n <= 1365 indices, and
    # with _WINDOW_CELLS = 0 windows of _WINDOW
    @pytest.mark.parametrize("cells", [smp._WINDOW_CELLS, 0],
                             ids=["wide", "narrow"])
    @pytest.mark.parametrize("spec,n,how", PACKED_CASES,
                             ids=lambda v: getattr(v, "name", str(v)))
    def test_reference_draw_reads_kept_entries(self, spec, n, how, cells,
                                               monkeypatch):
        monkeypatch.setattr(smp, "_WINDOW_CELLS", cells)
        x = choose_x(spec, n, 1, how) if isinstance(how, str) else how
        assert_reference_draws_match(spec, n, TiltedParams(x, 1), 24, 2, 9)

    # a random m list of each kind, at an x with x < 1 and theta x < 1 for
    # the multisets, and up to 3.6 for the other kinds; the cases that both
    # functions refuse (no structure of weight n, or P(T_n = n) below the
    # guard) are left out
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(hs.sampled_from(["assembly", "multiset", "selection"]),
           hs.lists(hs.integers(0, 3), min_size=1, max_size=12),
           hs.integers(1, 40), hs.sampled_from([0.3, 0.6, 0.9]),
           hs.sampled_from([Fraction(1, 2), 1, 2]))
    def test_reference_draw_on_custom_specs(self, kind, m, n, x, theta):
        spec = st.from_m_list(kind, m)
        params = TiltedParams(x / max(1, theta) if kind == "multiset"
                              else 4 * x, theta)
        if (sd.has_weight(spec, n) and sd.prob_T_eq_n(spec, n, params)
                >= smp._UNDERFLOW_GUARD):
            assert_reference_draws_match(spec, n, params, 20, 2, 3)

    def test_underflowed_zero_probability_draws_exact_law(self):
        spec, n = UNDERFLOW_SPEC, 1150
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = sample_components(spec, n, TiltedParams(1, 1), 3000,
                                      RngState(8))
        assert spec._table_cache["prefix_pmfs"].zl[-1] == 1
        weights = {}
        for a2 in range(n // 2 + 1):
            a1 = n - 2 * a2
            if a1 <= 1100:
                a = (a1, a2) + (0,) * (n - 2)
                weights[a] = math.comb(1100, a1) * math.comb(600, a2)
        total = sum(weights.values())
        law = orc.ExactLaw(entries={a: Fraction(w, total)
                                    for a, w in weights.items()})
        assert all(v.a[0] > 0 for v in batch.samples)
        assert chi_square_pvalue(batch.samples, law) > 1e-3


class TestStreamsAndThreads:
    def test_table_route_starts_no_threads(self, monkeypatch):
        def refuse(*_a, **_k):
            raise AssertionError("the table route started a thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        batch = sample_components(PERM, 8, TiltedParams(1, 1), 40,
                                  RngState(2), streams=4)
        assert batch.accepted == 40

    def test_rejection_streams_are_single_stream_runs(self, monkeypatch):
        # streams = 4 is the four single-stream runs at stream + k, in order
        params, rng = TiltedParams(1, 1), RngState(6, stream=3)
        singles = [sample_by_rejection(PERM, 5, params, 10,
                                       rng.with_stream(3 + k))
                   for k in range(4)]

        def refuse(*_a, **_k):
            raise AssertionError("the rejection route started a thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        got = sample_by_rejection(PERM, 5, params, 40, rng, streams=4)
        assert [v.a for v in got.samples] == \
            [v.a for b in singles for v in b.samples]
        assert got.trials == sum(b.trials for b in singles)


class TestRejectionPinned:
    # trials and a sha256 of the sample tuples of the rejection route, pinned
    # so that a rewrite of its block loop keeps every draw and trial count
    @pytest.mark.parametrize("spec,n,params,count,streams,seed,trials,digest", [
        (PERM, 6, TiltedParams(1, 1), 300, 1, 1, 3386,
         "20a9f153ed44064fa43027f0b5ddfbccd2620c8d171ca54eabe479161731161f"),
        (st.distinct_partitions(), 8, TiltedParams(0.5, 1), 301, 3, 2, 33050,
         "3263374625e3748064f3d99452ee3c1a8a8661200f68c564beee7257d9183e09"),
        (st.from_m_list("selection", [2, 0, 3, 1, 0, 2]), 6,
         TiltedParams(0.8, 1), 300, 1, 3, 5371,
         "738d3f5c45b0c6d4afeac746384b08b0d326e0d959004e5c3c5cddf12f09040e"),
        (st.polynomials(2), 30, TiltedParams(0.45, 1), 200, 1, 4, 45957,
         "6e23e9deefa7ceb8a294abe316c40d9b16574d879d0e22f15ffb16e2d388b93b"),
        (st.esf(2), 40, TiltedParams(1, 1), 202, 4, 5, 26887,
         "d845ec0edf94af9dc01b93c6b1ced4b83214ca936a4841360ab48e723fb50ed3"),
    ], ids=["permutations", "distinct_partitions", "selection", "polynomials2",
            "esf2"])
    def test_samples_and_trials(self, spec, n, params, count, streams, seed,
                                trials, digest):
        batch = sample_by_rejection(spec, n, params, count, RngState(seed),
                                    streams=streams)
        assert batch.trials == trials and batch.accepted == count
        tuples = repr([v.a for v in batch.samples]).encode()
        assert hashlib.sha256(tuples).hexdigest() == digest


class TestDrawT:
    def test_matches_weighted_sum_distribution(self):
        n = 12
        params = TiltedParams(1, 1)
        ts = draw_T(PERM, n, params, 40000, RngState(8))
        pv = sd.weighted_sum_pmf(PERM, range(1, n + 1), n, params)
        for k in (0, 5, 12):
            want = float(pv.p[: k + 1].sum())
            got = float(np.mean(ts <= k))
            se = math.sqrt(want * (1 - want) / len(ts))
            assert abs(got - want) <= 4 * se + 1e-12


def test_draw_T_memory_is_O_count_plus_n():
    # with the full-set slot filled, a few draws of T_n cost O(count + n)
    # bytes, not a block of n uniforms per draw (131 MB at n = 4000)
    spec, n, params = st.permutations(), 4000, TiltedParams(1, 1)
    sd.prob_T_eq_n(spec, n, params)
    tracemalloc.start()
    try:
        ts = draw_T(spec, n, params, 10, RngState(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ts) == 10 and np.all((ts >= 0) & (ts <= n + 1))
    assert peak < 8 * 2**20


class TestRefined:
    def test_m_one_reduces_to_components(self):
        spec = st.set_partitions()  # m_i = 1 for every i, so D = C
        ds = sample_refined(spec, 5, TiltedParams(1, 1), 50, RngState(4))
        batch = sample_components(spec, 5, TiltedParams(1, 1), 50, RngState(4))
        for d, v in zip(ds, batch.samples):
            for i, ai in enumerate(v.a, start=1):
                if ai:
                    assert d[i] == (ai,)

    def test_assembly_split_probabilities(self):
        # split of a_1 = 2 over m_1 = 2 cells: (2,0),(1,1),(0,2) w.p. 1/4,1/2,1/4
        spec = st.from_m_list("assembly", [2], name="a2")
        ds = sample_refined(spec, 2, TiltedParams(1, 1), 8000, RngState(17))
        counts = {}
        for d in ds:
            counts[d[1]] = counts.get(d[1], 0) + 1
        obs = [counts.get((2, 0), 0), counts.get((1, 1), 0), counts.get((0, 2), 0)]
        p = chisquare(obs, [0.25 * 8000, 0.5 * 8000, 0.25 * 8000]).pvalue
        assert p > 1e-3

    def test_multiset_split_uniform(self):
        spec = st.from_m_list("multiset", [2], name="m2")
        ds = sample_refined(spec, 2, TiltedParams(0.5, 1), 9000, RngState(18))
        counts = {}
        for d in ds:
            counts[d[1]] = counts.get(d[1], 0) + 1
        assert set(counts) == {(2, 0), (1, 1), (0, 2)}
        p = chisquare(list(counts.values())).pvalue
        assert p > 1e-3

    def test_refined_law_chi_square(self):
        # whole refined law against the refined enumeration oracle
        spec = st.from_m_list("multiset", [2, 1, 1], name="m211")
        n = 3
        law = orc.exact_refined_law(spec, n)
        ds = sample_refined(spec, n, TiltedParams(0.5, 1), 12000, RngState(19))
        counts = {}
        for d in ds:
            flat = []
            for i in range(1, n + 1):
                mi = spec.m(i)
                cell = d.get(i, tuple([0] * mi))
                flat.extend(cell)
            counts[tuple(flat)] = counts.get(tuple(flat), 0) + 1
        obs, exp = [], []
        for b, pr in law.entries.items():
            e = float(pr) * len(ds)
            if e >= 5:
                obs.append(counts.get(b, 0))
                exp.append(e)
        exp = np.array(exp) * (sum(obs) / sum(exp))
        assert chisquare(np.array(obs), exp).pvalue > 1e-3

    def test_selection_split_subsets(self):
        spec = st.from_m_list("selection", [3], name="s3")
        ds = sample_refined(spec, 2, TiltedParams(1, 1), 2000, RngState(20))
        for d in ds:
            assert sum(d[1]) == 2 and max(d[1]) == 1


class TestStatistics:
    def test_constant_vector(self):
        v = st.ComponentVector((4, 0, 0, 0))
        tab = statistics([v])
        assert tab.columns["K"] == [4]
        assert tab.columns["L"] == [1]
        assert tab.columns["J"] == [1]

    def test_size_biased_uniform_for_permutations(self):
        # D*_n is uniform on 1..n for uniform permutations
        n = 10
        batch = sample_components(PERM, n, TiltedParams(1, 1), 30000,
                                  RngState(31))
        tab = statistics(batch.samples)
        s = tab.summary()["Dstar"]
        assert abs(s["mean"] - (n + 1) / 2) <= 4 * s["se"]
        # the sample average of i a_i / n estimates P(D*_n = i) = 1/n
        pmf = np.mean([np.arange(1, n + 1) * np.asarray(v.a) / n
                       for v in batch.samples], axis=0)
        assert np.max(np.abs(pmf - 1 / n)) < 0.01

    def test_distinct_sizes_set_partitions_n400(self):
        # mean J_n within 4 SE of the exact conditioned expectation
        # sum_i (1 - P(Z_i=0) P(S_-i = n) / P(T_n = n))
        spec = st.set_partitions()
        n = 400
        params = TiltedParams(solve_xex(n), 1)
        pt = sd.prob_T_eq_n(spec, n, params)
        from combstruct.indep_process import z_law
        exact_EJ = 0.0
        for i in range(1, 46):  # lambda_i is negligible beyond i = 45
            ps = sd.weighted_sum_pmf(spec, [j for j in range(1, n + 1) if j != i],
                                     n, params)
            exact_EJ += 1.0 - z_law(spec, i, params).pmf(0) * float(ps.p[n]) / pt
        batch = sample_components(spec, n, params, 900, RngState(41))
        tab = statistics(batch.samples)
        s = tab.summary()["J"]
        assert abs(s["mean"] - exact_EJ) <= 4 * s["se"]

    def test_empty_batch(self):
        with pytest.raises(ParameterDomainError):
            statistics([])

    def test_counts_above_n(self):
        # the counts take the narrowest dtype that holds them, here uint32
        cols = statistics([st.ComponentVector((70000, 3))]).columns
        assert cols["K"] == [70003] and cols["L"] == [2] and cols["J"] == [2]
        assert cols["D"] == [70006 / 70003] and cols["Dstar"] == [35006.0]

    def test_columns_equal_per_sample_formulas(self):
        # the array columns against the per-sample definitions, exactly,
        # on sampled vectors plus an empty one
        batch = sample_components(st.integer_partitions(), 300,
                                  TiltedParams(0.93, 1), 400, RngState(12))
        samples = batch.samples + [st.ComponentVector((0,) * 300)]
        want = {"K": [], "L": [], "J": [], "D": [], "Dstar": []}
        for v in samples:
            sizes = [i for i, ai in enumerate(v.a, start=1) if ai]
            k = sum(v.a)
            want["K"].append(k)
            want["L"].append(max(sizes, default=0))
            want["J"].append(len(sizes))
            want["D"].append(float(sum(i * v.a[i - 1] for i in sizes)) / k
                             if k else 0.0)
            want["Dstar"].append(
                float(sum(i * i * v.a[i - 1] for i in sizes)) / 300)
        got = statistics(samples).columns
        assert got == want
        assert all(type(got[c][0]) is type(want[c][0]) for c in want)
