"""Exactness, determinism, and statistics of the table and rejection samplers."""

import math
import statistics as pystats
import threading

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
                                sample_refined, size_biased_pmf_estimate,
                                statistics)

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


class TestStreamsAndThreads:
    def test_table_route_starts_no_threads(self, monkeypatch):
        def refuse(*_a, **_k):
            raise AssertionError("the table route started a thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        batch = sample_components(PERM, 8, TiltedParams(1, 1), 40,
                                  RngState(2), streams=4)
        assert batch.accepted == 40

    def test_rejection_workers_capped_at_cpu_count(self, monkeypatch):
        args = (PERM, 5, TiltedParams(1, 1), 40, RngState(6))
        want = sample_components(*args, streams=4, method="rejection")
        seen = []
        real = smp.ThreadPoolExecutor

        def spy(max_workers):
            seen.append(max_workers)
            return real(max_workers=max_workers)
        monkeypatch.setattr(smp.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(smp, "ThreadPoolExecutor", spy)
        got = sample_components(*args, streams=4, method="rejection")
        assert seen == [1]
        assert [v.a for v in got.samples] == [v.a for v in want.samples]
        assert got.trials == want.trials


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
        pmf = size_biased_pmf_estimate(batch.samples)
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
