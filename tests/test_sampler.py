"""Exactness, determinism, and statistics of the table and rejection samplers."""

import hashlib
import math
import statistics as pystats
import threading
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from combstruct import structures as st
from combstruct import sumdist as sd
from combstruct import oracle as orc
from combstruct import moments as mom
from combstruct import sampler as smp
from combstruct.errors import NumericGuardError, ParameterDomainError
from combstruct.indep_process import TiltedParams, choose_x, solve_xex
from combstruct.sampler import (RngState, draw_T, sample_components,
                                sample_refined, statistics)

PERM = st.permutations()


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
        batch = sample_components(PERM, 3, params, 16000, RngState(11),
                                  method="rejection")
        p = math.exp(-11 / 6)
        assert batch.acceptance_exact == pytest.approx(p, rel=1e-12)
        se = math.sqrt(p * (1 - p) / batch.trials)
        assert abs(batch.accepted / batch.trials - p) <= 3 * se

    def test_trials_accounting(self):
        params = TiltedParams(0.5, 1)
        batch = sample_components(st.distinct_partitions(), 8, params, 4000,
                                  RngState(21), method="rejection")
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

    # the default (table) route keeps the bare case ids
    @pytest.mark.parametrize("spec,params,theta,method", [
        pytest.param(*case, method,
                     id=f"spec{j}-params{j}-{case[2]}"
                        + ("" if method == "table" else "-rejection"))
        for method in ("table", "rejection")
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
    def test_chi_square_small_n(self, spec, params, theta, method):
        n = 6
        law = orc.exact_joint_law(spec, n, theta)
        batch = sample_components(spec, n, params, 20000, RngState(123),
                                  method=method)
        assert chi_square_pvalue(batch.samples, law) > 1e-3

    def test_underflow_guard(self):
        with pytest.raises(NumericGuardError):
            sample_components(PERM, 60, TiltedParams(0.3, 1), 1, RngState(0))

    @pytest.mark.parametrize("method", ["table", "rejection"])
    def test_overflowing_tilt_is_numeric_guard(self, method):
        with pytest.raises(NumericGuardError):
            sample_components(PERM, 60, TiltedParams(1e6, 1), 1, RngState(0),
                              method=method)


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
    def test_mean_K_n1000(self, spec, how, monkeypatch):
        # E K = sum_j E C_j(n); every term rebuilds the same float p_theta
        # table above the exact cutoff, so it is memoized for this sum
        n = 1000
        params = TiltedParams(choose_x(spec, n, 1, how), 1)
        memo = {}
        orig = mom.log_ptheta_table

        def cached(spec_, n_, theta, x=None):
            if (n_, theta, x) not in memo:
                memo[n_, theta, x] = orig(spec_, n_, theta, x=x)
            return memo[n_, theta, x]
        monkeypatch.setattr(mom, "log_ptheta_table", cached)
        expected = math.fsum(mom.factorial_moment_single(spec, n, j, 1, params)
                             for j in range(1, n + 1))
        batch = sample_components(spec, n, params, 1000, RngState(77))
        ks = [v.num_components for v in batch.samples]
        se = pystats.stdev(ks) / math.sqrt(len(ks))
        assert abs(pystats.mean(ks) - expected) <= 5 * se

    def test_count_above_block(self, monkeypatch):
        spec, n, params = st.integer_partitions(), 10, TiltedParams(0.6, 1)
        count = smp._BLOCK + 101
        a = sample_components(spec, n, params, count, RngState(5), streams=2)
        b = sample_components(spec, n, params, count, RngState(5), streams=2)
        assert a.trials == a.accepted == count
        assert all(v.complete for v in a.samples)
        assert [v.a for v in a.samples] == [v.a for v in b.samples]
        # the block size bounds memory only: smaller blocks, same samples
        monkeypatch.setattr(smp, "_BLOCK", 97)
        c = sample_components(spec, n, params, count, RngState(5), streams=2)
        assert [v.a for v in c.samples] == [v.a for v in a.samples]

    def test_unknown_method(self):
        with pytest.raises(ParameterDomainError):
            sample_components(PERM, 5, TiltedParams(1, 1), 1, RngState(0),
                              method="boltzmann")


TABLE_PINNED = [
    # spec, n, x, count, streams, seed, samples per block (None: _BLOCK),
    # sha256 of the sample tuples
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
]
TABLE_PINNED_IDS = ["permutations", "integer_partitions",
                    "distinct_odd_partitions", "selection", "polynomials2",
                    "count_above_block"]


class TestTablePinned:
    # sha256 of the table route's sample tuples, pinned so that a rewrite of
    # the top-down draw keeps every sample
    @pytest.mark.parametrize("spec,n,x,count,streams,seed,block,digest",
                             TABLE_PINNED, ids=TABLE_PINNED_IDS)
    def test_samples(self, spec, n, x, count, streams, seed, block, digest,
                     monkeypatch):
        if block is not None:
            monkeypatch.setattr(smp, "_BLOCK", block)
        batch = sample_components(spec, n, TiltedParams(x, 1), count,
                                  RngState(seed), streams=streams)
        assert batch.trials == batch.accepted == count
        tuples = repr([v.a for v in batch.samples]).encode()
        assert hashlib.sha256(tuples).hexdigest() == digest

    # the row-block width changes the work per block, not a sample
    @pytest.mark.parametrize("spec,n,x,count,streams,seed,block,digest",
                             TABLE_PINNED[2:5], ids=TABLE_PINNED_IDS[2:5])
    @pytest.mark.parametrize("window", [1, 7, 10**6])
    def test_window_changes_no_sample(self, spec, n, x, count, streams, seed,
                                      block, digest, window, monkeypatch):
        monkeypatch.setattr(smp, "_WINDOW", window)
        batch = sample_components(spec, n, TiltedParams(x, 1), count,
                                  RngState(seed), streams=streams)
        tuples = repr([v.a for v in batch.samples]).encode()
        assert hashlib.sha256(tuples).hexdigest() == digest


class TestOneTablePerSlot:
    def test_five_x_values_keep_one_table_per_slot(self):
        spec, n = st.permutations(), 40
        first = None
        for x in (0.999, 0.9995, 1.0, 1.0005, 1.001):
            for method in ("table", "rejection"):
                sample_components(spec, n, TiltedParams(x, 1), 2, RngState(0),
                                  method=method)
            if first is None:
                first = weakref.ref(spec._table_cache["prefix_pmfs"].qc)
        slots = [str(k) for k in spec._table_cache]
        assert sum("prefix_pmfs" in k for k in slots) == 1
        assert sum("sampler_tables" in k for k in slots) == 1
        assert spec._table_keys["prefix_pmfs"] == (n, 1.001, 1.0)
        assert first() is None

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


class TestPackedTable:
    @pytest.mark.parametrize("spec,n,how", [
        (PERM, 300, 1.0),
        (st.integer_partitions(), 300, "integer_partition"),
        (st.set_partitions(), 300, "set_partition"),
        (st.distinct_partitions(), 300, "distinct_partition"),
        (st.esf(2), 300, "exact_mean"),
        (st.polynomials(2), 300, "exact_mean"),
        (st.distinct_odd_partitions(), 300, 0.98),
        (st.from_m_list("selection", [0, 2, 1, 0, 3] * 12), 60, 0.9),
        (UNDERFLOW_SPEC, 1150, 1.0),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_every_read_entry_matches_dense(self, spec, n, how):
        x = choose_x(spec, n, 1, how) if isinstance(how, str) else how
        params = TiltedParams(x, 1)
        q = dense_prefix(spec, n, params)
        batch = sample_components(spec, n, params, 0, RngState(0))
        tab = spec._table_cache["prefix_pmfs"]
        assert tab.qc.nbytes <= 8 * ((n + 1) * (n + 2) // 2 + n + 128)
        assert batch.acceptance_exact == q[n, n]
        # the zero test reads Q[i, r], i <= r: bit for bit
        r, i = np.tril_indices(n + 1)
        assert np.array_equal(tab.qc[tab.tri[r] + i], q[i, r])
        # a weight reads Q[j-1, r] for r < j - 1 <= n - 1 too
        i, r = np.tril_indices(n, -1)
        got, want = smp._q(tab, i, r), q[i, r]
        assert np.array_equal(got == 0, want == 0)
        pos = want > 0
        assert np.all(np.abs(got[pos] - want[pos]) <= 1e-12 * want[pos])

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
                                    for a, w in weights.items()}, n=n)
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
        singles = [sample_components(PERM, 5, params, 10, rng.with_stream(3 + k),
                                     method="rejection") for k in range(4)]

        def refuse(*_a, **_k):
            raise AssertionError("the rejection route started a thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        got = sample_components(PERM, 5, params, 40, rng, streams=4,
                                method="rejection")
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
        batch = sample_components(spec, n, params, count, RngState(seed),
                                  streams=streams, method="rejection")
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
        v = st.ComponentVector(n=4, a=(4, 0, 0, 0))
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

    def test_columns_equal_per_sample_formulas(self):
        # the array columns against the per-sample definitions, exactly,
        # on sampled vectors plus an empty one
        batch = sample_components(st.integer_partitions(), 300,
                                  TiltedParams(0.93, 1), 400, RngState(12))
        samples = batch.samples + [st.ComponentVector(n=300, a=(0,) * 300)]
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
