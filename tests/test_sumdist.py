"""Weighted-sum distributions: recursion vs convolution, the conditioning
probability identities, and conditional laws."""

import bisect
import contextlib
import io
import json
import math
import random
import sys
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtbtrs as scipy_dtbtrs

from combstruct import cli
from combstruct import structures as st
from combstruct import sumdist as sd
from combstruct import oracle as orc
from combstruct.errors import NumericGuardError, ParameterDomainError
from combstruct.indep_process import (TiltedParams, choose_x, log_m_array,
                                      z_law, z_pmf_rows)
from cli_helpers import write_specs
from scalar_refs import divisor_lists as _divisor_lists
from scalar_refs import log_factorial as _ref_log_factorial
from scalar_refs import log_weight_mp as _log_weight_mp
from scalar_refs import m_softplus as _m_softplus
from scalar_refs import safe_mlog1p as _safe_mlog1p

PERM = st.permutations()
INTPART = st.integer_partitions()
DISTINCT = st.distinct_partitions()
EVEN_ONLY = st.from_m_list("multiset", [0, 1], name="even_only")


def _recursion_pmf(spec, B, n_max, params):
    """The recursion's pmf: the default route of an assembly or multiset,
    and a selection's signed recursion with no certificate or fallback."""
    if spec.kind is not st.Kind.SELECTION:
        return sd.weighted_sum_pmf(spec, B, n_max, params)
    return sd._assemble(*sd._pmf_by_recursion(spec, sd.index_set(B), n_max,
                                              params))


class TestWeightedSumPmf:
    def test_single_index_poisson(self):
        pv = sd.weighted_sum_pmf(PERM, [1], 12, TiltedParams(1, 1))
        for k in range(13):
            assert pv.p[k] == pytest.approx(math.exp(-1) / math.factorial(k),
                                            rel=1e-12)

    def test_full_set_hits_prob_T(self):
        pv = sd.weighted_sum_pmf(PERM, [1, 2, 3], 3, TiltedParams(1, 1))
        assert pv.p[3] == pytest.approx(math.exp(-11 / 6), rel=1e-12)

    def test_routes(self):
        # one production route and the convolution to check it against
        for method in ("recursion", "exact"):
            with pytest.raises(ParameterDomainError, match="unknown method"):
                sd.weighted_sum_pmf(PERM, [1], 3, TiltedParams(1, 1), method)

    def test_n_max_zero(self, tbtrs_route):
        # no block to solve: P(R_B = 0) is the seed, the rest the tail
        pmf = sd.weighted_sum_pmf(PERM, [1, 2], 0, TiltedParams(0.5, 1))
        assert pmf.n_max == 0
        assert pmf.p[0] == pytest.approx(math.exp(-0.625), rel=1e-15)

    def test_empty_set(self):
        pv = sd.weighted_sum_pmf(PERM, [], 5, TiltedParams(1, 1))
        assert pv.p[0] == 1.0 and pv.tail == 0.0

    def test_index_above_truncation_feeds_tail(self):
        # B = {5} truncated at 3: only the zero draw stays in the body
        pv = sd.weighted_sum_pmf(PERM, [5], 3, TiltedParams(1, 1))
        lam = 1 / 5
        assert pv.p[0] == pytest.approx(math.exp(-lam), rel=1e-12)
        assert pv.p[1:].sum() == 0.0
        assert pv.tail == pytest.approx(1 - math.exp(-lam), rel=1e-12)

    def test_scaled_index_support(self):
        # R_{3} = 3 Z_3 lives on multiples of 3
        pv = sd.weighted_sum_pmf(INTPART, [3], 10, TiltedParams(0.5, 1))
        assert pv.p[1] == 0.0 and pv.p[2] == 0.0
        law = z_law(INTPART, 3, TiltedParams(0.5, 1))
        for k in range(4):
            assert pv.p[3 * k] == pytest.approx(law.pmf(k), rel=1e-13)

    @pytest.mark.parametrize("spec,x", [(PERM, 1.0), (INTPART, 0.6),
                                        (DISTINCT, 1.0)])
    def test_recursion_vs_convolution_random_B(self, spec, x):
        rng = random.Random(hash(spec.name) & 0xFFFF)
        params = TiltedParams(x, 1)
        for trial in range(4):
            n = 60
            B = sorted(rng.sample(range(1, n + 1), rng.randint(1, 20)))
            pr = _recursion_pmf(spec, B, n, params)
            pc = sd.weighted_sum_pmf(spec, B, n, params, method="convolution")
            assert float(np.max(np.abs(pr.p - pc.p))) < 1e-10
            assert abs(pr.tail - pc.tail) < 1e-10

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_tilted_recursion_vs_convolution(self, theta):
        params = TiltedParams(0.45, theta)
        B = [1, 2, 5, 9, 13]
        pr = sd.weighted_sum_pmf(st.polynomials(2), B, 40, params)
        pc = sd.weighted_sum_pmf(st.polynomials(2), B, 40, params, "convolution")
        assert float(np.max(np.abs(pr.p - pc.p))) < 1e-10

    def test_selection_signed_recursion_guarded(self):
        params = TiltedParams(1.0, 1)
        pv = _recursion_pmf(DISTINCT, [1, 3, 4, 7], 30, params)
        pc = sd.weighted_sum_pmf(DISTINCT, [1, 3, 4, 7], 30, params,
                                 method="convolution")
        assert float(np.max(np.abs(pv.p - pc.p))) < 1e-8

    def test_rescaling_large_n(self):
        # set partitions at n = 1200: coefficients overflow a double by far,
        # exercising the shared base-2 exponent; check the local-limit value
        spec = st.set_partitions()
        from combstruct.indep_process import solve_xex, sum_moments
        n = 1200
        params = TiltedParams(solve_xex(n), 1)
        pv = sd.weighted_sum_pmf(spec, range(1, n + 1), n, params)
        sigma = math.sqrt(sum_moments(spec, n, params).variance)
        assert abs(pv.p[n] * math.sqrt(2 * math.pi) * sigma - 1) < 0.01

    @settings(max_examples=25, deadline=None)
    @given(hs.sets(hs.integers(min_value=1, max_value=24), max_size=10))
    def test_recursion_vs_convolution_property(self, B):
        params = TiltedParams(0.7, 1)
        pr = sd.weighted_sum_pmf(INTPART, B, 24, params)
        pc = sd.weighted_sum_pmf(INTPART, B, 24, params, method="convolution")
        assert float(np.max(np.abs(pr.p - pc.p))) < 1e-11


def _dense_convolution_pmf(spec, B, n_max, params):
    """Reference: one dense np.convolve of the whole pmf per index."""
    r = np.array([1.0])
    for i in B:
        if spec.m(i) == 0:
            continue
        law = z_law(spec, i, params)
        k_max = n_max // i
        v = np.zeros(min(k_max * i, n_max) + 1)
        v[::i] = law.pmf_array(k_max)[: len(v[::i])]
        r = np.convolve(r, v)[: n_max + 1]
    p = np.zeros(n_max + 1)
    p[: len(r)] = r
    return p


_RNG_M = random.Random(20131)
CUSTOM_SELECTION = st.from_m_list(
    "selection", [_RNG_M.randint(0, 3) for _ in range(300)], name="custom_sel")


class TestStridedSelectionUpdate:
    @pytest.mark.parametrize("spec,n", [(DISTINCT, 300),
                                        (st.distinct_odd_partitions(), 300),
                                        (st.squarefree_polynomials(2), 200),
                                        (CUSTOM_SELECTION, 300)],
                             ids=lambda v: getattr(v, "name", str(v)))
    def test_matches_dense_convolution(self, spec, n):
        params = TiltedParams(choose_x(spec, n), 1)
        rng = random.Random(n)
        for B in (range(1, n + 1), sorted(rng.sample(range(1, n + 1), n // 3))):
            got = sd.weighted_sum_pmf(spec, B, n, params, method="convolution")
            want = _dense_convolution_pmf(spec, sd.index_set(B), n, params)
            assert float(np.max(np.abs(got.p - want))) <= 1e-14
            assert got.tail == pytest.approx(max(0.0, 1.0 - want.sum()),
                                             abs=1e-14)


# reference routes: the scalar forms of log_seed, _g_array and
# _recursion_coeffs that the array routes replaced; the terms of log_seed
# are the scalar log P(Z_i = 0) kept in scalar_refs.  An assembly's
# log(m_i / i!) is taken from the exact m_i in 30-digit mpmath

def _ref_log_seed(spec, B, params):
    """math.fsum of the per-index terms.  t = e^lw is numpy's exp over the
    array of lw, as on the production route: near the pole log1p(-t)
    magnifies a last-bit change of t by t / (1 - t)."""
    lth, lx = math.log(params.ftheta), math.log(params.fx)
    B = sd.index_set(B)
    lms = log_m_array(spec, B[-1] if B else 0)
    idx = [i for i in B if lms[i] != -np.inf]
    lws = lth + np.array(idx, dtype=np.int64) * lx
    with np.errstate(over="ignore"):  # t is read by multisets only
        ts = np.exp(lws).tolist()
    terms = []
    for i, lw, t in zip(idx, lws.tolist(), ts):
        lm = float(lms[i])
        if spec.kind is st.Kind.ASSEMBLY:
            terms.append(-math.exp(_log_weight_mp(spec, i) + lw))
        elif spec.kind is st.Kind.MULTISET:
            terms.append(_safe_mlog1p(lm, t, lw))
        else:
            terms.append(-_m_softplus(lm, lw))
    return math.fsum(terms)


def _ref_g_array(spec, B, n_max, params):
    signed = spec.kind is st.Kind.SELECTION
    lth, lx = math.log(params.ftheta), math.log(params.fx)
    g = np.zeros(n_max + 1)
    lm = log_m_array(spec, n_max)
    bset = set(B)
    if spec.kind is st.Kind.ASSEMBLY:
        for i in B:
            if i <= n_max and lm[i] != -np.inf:
                g[i] = math.exp(lth + _log_weight_mp(spec, i) + i * lx
                                + math.log(i))
        return g
    divs = _divisor_lists(n_max)
    for i in range(1, n_max + 1):
        acc = 0.0
        for k in divs[i]:
            if k in bset and lm[k] != -np.inf:
                term = math.exp(math.log(k) + lm[k] + (i // k) * lth + i * lx)
                acc += -term if signed and (i // k) % 2 == 0 else term
        g[i] = acc
    return g


def _ref_recursion_coeffs(g, n_max):
    q = np.zeros(n_max + 1)
    q[0] = 1.0
    shift = 0
    running_max = 1.0
    for k in range(1, n_max + 1):
        q[k] = float(np.dot(g[1:k + 1], q[k - 1::-1])) / k
        running_max = max(running_max, q[k])
        if running_max > 2.0 ** 512:
            q[:k + 1] *= 2.0 ** -512
            running_max *= 2.0 ** -512
            shift += 512
    return q, shift


REFERENCE_SPECS = [
    st.permutations(), st.mappings(), st.set_partitions(),
    st.two_regular_graphs(), st.esf(Fraction(1, 2)), st.esf(0.3),
    st.integer_partitions(), st.polynomials(2), st.necklaces(3),
    st.distinct_partitions(), st.distinct_odd_partitions(),
    st.squarefree_polynomials(2),
    st.from_m_list("assembly", [0, 2, 0, 0, 5, 1, 0, 3], name="asm_zeros"),
    st.from_m_list("multiset", [1, 0, 0, 2, 0, 3], name="mset_zeros"),
    st.from_m_list("selection", [1, 0, 2, 3, 0, 1], name="sel_zeros"),
]
REFERENCE_THETAS = [1, 2, Fraction(1, 2), 0.3]
REFERENCE_NS = [1, 2, 97, 127, 128, 129, 1000]  # 128: the recursion's block


def _reference_x(spec, theta):
    """The exact-mean x at n = 1000 for builtins, a fixed x for the finite m
    lists; multisets and selections keep theta x < 1 (the multiset domain,
    and the signed selection recursion cancels catastrophically beyond it,
    so that any two summation orders part)."""
    x = choose_x(spec, 1000, theta) if "builtin" in spec.params else 0.7
    if spec.kind is st.Kind.ASSEMBLY:
        return x
    return min(x, 0.9 / float(theta))


def _close(got, want, tol=1e-12):
    scale = float(np.max(np.abs(want))) if np.size(want) else 0.0
    return float(np.max(np.abs(np.asarray(got) - want), initial=0.0)) <= tol * scale


class TestArrayRoutesMatchScalarReferences:
    def test_every_builtin_covered(self):
        names = {sp.params.get("builtin") for sp in REFERENCE_SPECS}
        assert set(st.BUILTINS) <= names

    @pytest.mark.parametrize("theta", REFERENCE_THETAS, ids=str)
    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.name)
    def test_full_index_set(self, spec, theta):
        params = TiltedParams(_reference_x(spec, theta), theta)
        for n in REFERENCE_NS:
            B = tuple(range(1, n + 1))
            want = _ref_g_array(spec, B, n, params)
            g = sd._g_array(spec, B, n, params)
            assert _close(g, want), (n, "g")
            q, shift = sd._recursion_coeffs(g, n)
            q_ref, shift_ref = _ref_recursion_coeffs(want, n)
            assert _close(q * 2.0 ** (shift - shift_ref), q_ref), (n, "q")
            ls, ls_ref = sd.log_seed(spec, B, params), _ref_log_seed(spec, B, params)
            assert abs(ls - ls_ref) <= 1e-12 * abs(ls_ref), (n, "seed")

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.name)
    def test_gapped_index_sets_past_n_max(self, spec):
        rng = random.Random(spec.name)
        for theta in (1, 0.3):
            params = TiltedParams(_reference_x(spec, theta), theta)
            for n in REFERENCE_NS:
                B = sd.index_set(rng.sample(range(1, n + 1), max(1, n // 2))
                                 + [n + 1, 2 * n + 3])
                want = _ref_g_array(spec, B, n, params)
                g = sd._g_array(spec, B, n, params)
                assert _close(g, want), n
                assert _close(sd._recursion_coeffs(g, n)[0],
                              _ref_recursion_coeffs(want, n)[0]), n
                ls_ref = _ref_log_seed(spec, B, params)
                assert abs(sd.log_seed(spec, B, params) - ls_ref) <= \
                    1e-12 * abs(ls_ref), n

    def test_log_ptheta_float_table(self):
        # the float branch of log_ptheta_table against a per-k loop over
        # the full-set slot's triple (v, shift, lseed) and seed; np.log on
        # a scalar runs the same loop as on the array
        for spec in (st.set_partitions(), st.integer_partitions(),
                     st.distinct_partitions()):
            n = 1000
            x = choose_x(spec, n, 0.3)
            got = st.log_ptheta_table(spec, n, 0.3, x=x)
            (v, shift, lseed), seed = spec._table_cache["full_set"]
            shift = np.broadcast_to(shift, v.shape)
            for k in (0, 1, 2, 97, 500, 1000):
                w = math.ldexp(v[k], int(shift[k]))
                lw = (np.log(w) if sys.float_info.min <= w < math.inf
                      else np.log(v[k]) + shift[k] * math.log(2.0))
                want = lw + (lseed - seed) - k * math.log(x)
                if spec.kind is st.Kind.ASSEMBLY:
                    want += _ref_log_factorial(k)
                assert got[k] == want, (spec.name, k)

    def test_no_exact_table_on_the_float_path(self, monkeypatch):
        def boom(*_args):
            raise AssertionError("an exact p_theta table was built")
        monkeypatch.setattr(st, "_divisor_recurrence", boom)
        monkeypatch.setattr(st, "ptheta_table", boom)
        monkeypatch.setattr(sd, "ptheta_table", boom)
        spec = st.integer_partitions()
        params = TiltedParams(choose_x(spec, 2000), 1)
        sd.prob_T_eq_n(spec, 2000, params)
        sd._g_array(st.squarefree_polynomials(2), tuple(range(1, 600)), 600,
                    TiltedParams(0.4, 1))


def _loop_g_array(spec, B, n_max, params):
    """The per-divisor loop that built g before its set-up arrays: one
    arange and one exp per divisor k <= isqrt(n_max) and one fancy-index
    update per j above, each term lk + j log theta + k j log x; entries
    beyond double range are left inf or nan."""
    lth, lx = math.log(params.ftheta), math.log(params.fx)
    g = np.zeros(n_max + 1)
    lm_all = log_m_array(spec, n_max)
    ks = np.array([k for k in sorted(set(B))
                   if k <= n_max and lm_all[k] != -np.inf], dtype=np.int64)
    lk = np.log(ks) + lm_all[ks]
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind is st.Kind.ASSEMBLY:
            g[ks] = np.exp(lk + lth + ks * lx)
            return g
        signed = spec.kind is st.Kind.SELECTION
        r = math.isqrt(n_max)
        split = int(np.searchsorted(ks, r, side="right"))
        for k, lkk in zip(ks[:split].tolist(), lk[:split].tolist()):
            j = np.arange(1, n_max // k + 1)
            terms = np.exp(lkk + j * lth + (k * j) * lx)
            if signed:
                terms[1::2] *= -1.0
            g[k::k] += terms
        ks, lk = ks[split:], lk[split:]
        for j in range(1, n_max // (r + 1) + 1):
            cut = int(np.searchsorted(ks, n_max // j, side="right"))
            kj = ks[:cut] * j
            terms = np.exp(lk[:cut] + j * lth + kj * lx)
            if signed and j % 2 == 0:
                g[kj] -= terms
            else:
                g[kj] += terms
    return g


G_LOOP_SPECS = [
    st.set_partitions(), st.esf(0.3), st.integer_partitions(),
    st.polynomials(2), st.necklaces(3), st.distinct_partitions(),
    st.distinct_odd_partitions(), st.squarefree_polynomials(2),
    st.from_m_list("assembly", [0, 2, 0, 0, 5, 1, 0, 3], name="asm_zeros"),
    st.from_m_list("multiset", [1, 0, 0, 2, 0, 3], name="mset_zeros"),
    st.from_m_list("selection", [1, 0, 2, 3, 0, 1], name="sel_zeros"),
]
G_LOOP_NS = [1, 2, 97, 128, 129, 1000, 4000, 16000]


def _g_loop_sets(n, rng):
    """Index sets that take each branch of _g_array's update past
    r = isqrt(n): a full set, a 5-index R_B and its complement (evenly
    spaced past r), 1..r with every third index past r and one past n
    (evenly spaced, step 3), odd indices and multiples of 7 past r (not
    evenly spaced), and a random half with two indices past n."""
    r = math.isqrt(n)
    return [range(1, n + 1), (1, 3, 5, 7, 9),
            sd.complement((1, 3, 5, 7, 9), n),
            [*range(1, r + 1), *range(r + 1, n + 1, 3), n + 5],
            [*range(r + 1, n + 1, 2), *range(7 * (r // 7 + 1), n + 1, 7)],
            rng.sample(range(1, n + 1), max(1, n // 2)) + [n + 1, 2 * n + 3]]


class TestGArrayMatchesDivisorLoop:
    @pytest.mark.parametrize("theta", REFERENCE_THETAS, ids=str)
    @pytest.mark.parametrize("spec", G_LOOP_SPECS, ids=lambda s: s.name)
    def test_bytes_equal_the_loop(self, spec, theta):
        # the same terms added in the same order (k <= r ascending, then j
        # ascending), so the same bits; where the loop leaves an entry
        # beyond double range, _g_array raises the numeric guard
        rng = random.Random(f"{spec.name}/{theta}")
        for n in G_LOOP_NS:
            x = (choose_x(spec, n, theta) if "builtin" in spec.params
                 and n >= 97 else 0.7 / max(1.0, float(theta)))
            params = TiltedParams(x, theta)
            for B in _g_loop_sets(n, rng):
                B = sd.index_set(B)
                want = _loop_g_array(spec, B, n, params)
                if not np.all(np.isfinite(want)):
                    with pytest.raises(NumericGuardError):
                        sd._g_array(spec, B, n, params)
                    continue
                got = sd._g_array(spec, B, n, params)
                assert got.tobytes() == want.tobytes(), (n, len(B))

    @pytest.mark.parametrize("spec,n,x", [
        (st.permutations(), 60, 1e6),
        (st.polynomials(2), 2000, 0.99),
        (st.from_m_list("multiset", [10 ** 400], name="huge_m"), 1, 0.5),
        (st.distinct_partitions(), 60, 1e6),
    ], ids=["assembly", "multiset", "multiset-m", "selection"])
    def test_term_beyond_double_range_is_the_same_guard(self, spec, n, x):
        params = TiltedParams(x, 1)
        B = sd.index_set(range(1, n + 1))
        assert not np.all(np.isfinite(_loop_g_array(spec, B, n, params)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericGuardError) as err:
                sd._g_array(spec, B, n, params)
        assert str(err.value) == ("a recursion weight g(i) beyond double "
                                  "range; choose a smaller x")

    def test_selection_hands_its_active_indices_to_g(self, monkeypatch):
        calls, gs = [], []
        orig, orig_g = sd._active_indices, sd._g_array

        def spy(*args):
            calls.append(args[2])
            return orig(*args)

        def spy_g(*args):
            gs.append(orig_g(*args))
            return gs[-1]
        monkeypatch.setattr(sd, "_active_indices", spy)
        monkeypatch.setattr(sd, "_g_array", spy_g)
        spec, n = st.distinct_partitions(), 1000
        params = TiltedParams(choose_x(spec, n), 1)
        sd._auto_pmf(spec, sd.index_set(range(1, n + 1)), n, params)
        assert calls == [n] and len(gs) == 1
        assert gs[0].tobytes() == _loop_g_array(spec, range(1, n + 1), n,
                                                params).tobytes()


SELECTION_BUILTINS =[st.distinct_partitions(), st.distinct_odd_partitions(),
                      st.squarefree_polynomials(2)]


class TestSelectionFloatTable:
    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 2], ids=str)
    @pytest.mark.parametrize("spec", SELECTION_BUILTINS, ids=lambda s: s.name)
    def test_matches_exact_table(self, spec, theta):
        # n = 600 is above EXACT_CUTOFF, so log_ptheta_table takes the
        # float route; -inf exactly where no structure of weight k exists
        n = 600
        got = st.log_ptheta_table(spec, n, theta)
        exact = st.ptheta_table(spec, n, theta)
        for k, (g, e) in enumerate(zip(got, exact)):
            if e == 0:
                assert g == -math.inf, k
            else:
                assert abs(math.expm1(g - st.log_big(e))) <= 1e-12, k

    def test_pofn_last_row_matches_exact_table(self, tmp_path, capsys):
        # distinct partitions at n = 1000, theta = 2 is above the exact
        # cutoff: pofn prints the float table, which a selection reads off
        # its certified route for T_n; its last row, p_theta(1000), printed
        # to 12 digits, against the exact big-integer table
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "selection",
                                    "builtin": "distinct_partitions"}))
        assert cli.run(["pofn", "--spec", str(path), "--n", "1000",
                        "--theta", "2"]) == 0
        k, value = capsys.readouterr().out.splitlines()[-1].split("\t")
        mantissa, _, exponent = value.partition("e")
        got = math.log(float(mantissa)) + int(exponent or 0) * math.log(10)
        exact = st.ptheta_table(st.distinct_partitions(), 1000, 2)[1000]
        assert k == "1000"
        assert abs(math.expm1(got - st.log_big(exact))) <= 1e-9

    def test_prob_t_closed_form_reads_the_certified_pmf(self, tmp_path,
                                                        capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "selection",
                                    "builtin": "distinct_odd_partitions"}))
        assert cli.run(["prob-t", "--spec", str(path), "--n", "1000",
                        "--theta", "2"]) == 0
        rec, clo, gap = map(float, capsys.readouterr().out.splitlines()[-1]
                            .split("\t"))
        assert 0 < clo <= 1 and gap <= 1e-12

    @staticmethod
    def _far_tilt(m_list, n, theta):
        # x at 1.6 times the exact-mean x: the seed P(T_n = 0) is below
        # e^-708, P(T_n = n) is not
        spec = st.from_m_list("selection", m_list, name="heavy")
        params = TiltedParams(1.6 * choose_x(spec, n, theta), theta)
        assert sd.log_seed(spec, range(1, n + 1), params) < -708
        return spec, params

    def test_certified_recursion_needs_no_representable_seed(self):
        # the certified recursion's table is log q + shift log 2, as for the
        # other kinds: P(T_n = k) below double range does not matter there
        n = 500
        spec, params = self._far_tilt([10 ** 6] + [1] * (n - 1), n, 2.0)
        full = sd.index_set(range(1, n + 1))
        assert sd._auto_pmf(spec, full, n, params)[1]
        got = st.log_ptheta_table(spec, n, 2.0, x=params.x)
        exact = st.log_ptheta_table(spec, n, 2)
        for k, (g, e) in enumerate(zip(got, exact)):
            assert abs(g - e) <= 1e-11 * max(1.0, abs(e)), k
        rec = sd.prob_T_eq_n(spec, n, params)
        clo = sd.prob_T_eq_n(spec, n, params, method="closed_form")
        assert 0 < rec and abs(clo / rec - 1) <= 1e-11

    def test_convolution_guards_only_the_entries_read(self):
        # the convolution's P(T_n = k) underflows for small k although
        # weight k is reachable: the whole table raises, while entry n (all
        # that p_total and the closed form of prob-t read) is still resolved
        n = 500
        spec, params = self._far_tilt([10 ** 4] + [5] * (n - 1), n, 2.0)
        full = sd.index_set(range(1, n + 1))
        assert not sd._auto_pmf(spec, full, n, params)[1]
        with pytest.raises(NumericGuardError, match="underflowed"):
            st.log_ptheta_table(spec, n, 2.0, x=params.x)
        exact = st.log_big(st.p_total(spec, n, 2))
        got = sd._float_log_table(spec, n, 2.0, params.x)[n]
        assert abs(got - exact) <= 1e-11 * abs(exact)
        rec = sd.prob_T_eq_n(spec, n, params)
        clo = sd.prob_T_eq_n(spec, n, params, method="closed_form")
        assert 0 < rec and abs(clo / rec - 1) <= 1e-11

    def test_underflowed_entry_n_raises(self):
        # at x = 1.2 the seed of distinct partitions of 150 is e^-2069 and
        # P(T_n = n) underflows with it
        spec = st.distinct_partitions()
        with pytest.raises(NumericGuardError, match="underflowed"):
            sd.prob_T_eq_n(spec, 150, TiltedParams(1.2, 1.0),
                           method="closed_form")

    def test_p_total_reads_the_table(self):
        spec = st.squarefree_polynomials(2)
        x = choose_x(spec, 700, 1)
        table = st.log_ptheta_table(spec, 700, 1.0, x=x)
        assert st.p_total(spec, 700, 1.0) == math.exp(table[700])


class TestBlockedRecursion:
    @pytest.mark.parametrize("signed", [False, True])
    def test_growth_past_2_512_within_a_block(self, signed):
        # g(i) = 1000 / i for i <= 10: q[k] passes 2^512 at k = 112, inside
        # the first 128-index block, while every g stays finite
        n = 300
        g = np.zeros(n + 1)
        g[1:11] = 1000.0 / np.arange(1, 11)
        if signed:
            g[2::2] *= -1.0
        q, shift = sd._recursion_coeffs(g, n)
        q_ref, shift_ref = _ref_recursion_coeffs(g, n)
        assert shift_ref > 0 and np.all(np.isfinite(q))
        assert _close(q * 2.0 ** (shift - shift_ref), q_ref)
        top = q[-1] * 2.0 ** (shift[-1] - shift_ref)
        assert top == pytest.approx(q_ref[-1], rel=1e-12)
        # no entry falls below the smallest normal double at the rescale
        assert np.all(np.abs(q_ref) >= sys.float_info.min)


def _band(g):
    """The last index i with g[i] != 0 (0 for an all-zero g)."""
    nz = np.flatnonzero(g[1:])
    return int(nz[-1]) + 1 if nz.size else 0


def _banded_g(band, n, sign_every=0):
    g = np.zeros(n + 1)
    g[1:band + 1] = np.random.default_rng(band).uniform(0.1, 2.0, band)
    if sign_every:
        g[sign_every::sign_every] *= -1.0
    return g


def _full_set_g(spec, n):
    params = TiltedParams(choose_x(spec, n), 1)
    return sd._g_array(spec, tuple(range(1, n + 1)), n, params)


def _block_widths(monkeypatch):
    """The widths m of the block solves of _recursion_coeffs, in order."""
    widths = []
    orig = sd._BandSolve.__call__

    def spy(self, off, m):
        # a geometric tail interleaves T_k and q_k in a work vector as long
        # as the band matrix: two rows per index; else x is q itself
        widths.append(m // 2 if len(self.x) == len(self.ab) else m)
        return orig(self, off, m)

    monkeypatch.setattr(sd._BandSolve, "__call__", spy)
    return widths


class TestBandedRecursion:
    # each block of _recursion_coeffs correlates q only with g's nonzero
    # band; the one-step reference loop reads the whole of g

    def test_all_zero_g_is_e0(self):
        n = 300
        q, shift = sd._recursion_coeffs(np.zeros(n + 1), n)
        assert not np.any(shift) and q[0] == 1.0 and not np.any(q[1:])

    def test_n_max_zero_and_one(self, tbtrs_route):
        # n_max = 0 solves no block; n_max = 1 one block of one index
        for g in (np.zeros(1), np.array([0.0, 2.5]), np.zeros(2)):
            n = len(g) - 1
            q, shift = sd._recursion_coeffs(g, n)
            q_ref, shift_ref = _ref_recursion_coeffs(g, n)
            assert np.array_equal(q, q_ref) and not np.any(shift)
            assert shift.shape == q.shape == (n + 1,)

    @pytest.mark.parametrize("spec,B", [
        (st.set_partitions(), (1, 3, 5, 7, 9)),
        (st.permutations(), (2, 4, 6, 8, 10)),
        (st.mappings(), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
    ], ids=["set_partitions", "permutations", "mappings"])
    def test_wide_blocks_of_assembly_r_b(self, spec, B, monkeypatch):
        # the band of R_B is max B <= 10, so a block is as wide as the
        # growth bound allows, and some are wider than _BLOCK
        n = 4000
        g = sd._g_array(spec, B, n, TiltedParams(choose_x(spec, n), 1))
        assert _band(g) == max(B)
        widths = _block_widths(monkeypatch)
        q, shift = sd._recursion_coeffs(g, n)
        assert sum(widths) == n and max(widths) > sd._BLOCK
        assert _entrywise_gap(g, n, q, shift) <= 1e-12

    @pytest.mark.parametrize("case", [
        "band_1", "band_inside_a_block", "band_across_a_block_edge",
        "set_partitions_rescaled", "dense"])
    def test_positive_g_matches_one_step_loop(self, case, monkeypatch):
        widths = _block_widths(monkeypatch)
        if case == "band_1":
            n, g = 300, np.zeros(301)
            g[1] = 50.0  # q[k] = 50^k / k!
        elif case == "band_inside_a_block":
            n, g = 1000, _banded_g(40, 1000)
        elif case == "band_across_a_block_edge":
            n, g = 1000, _banded_g(sd._BLOCK + 5, 1000)
        elif case == "set_partitions_rescaled":
            # g underflows to exact zeros past i = 285 at the exact-mean x
            n = 16000
            g = _full_set_g(st.set_partitions(), n)
        else:
            n = 2000
            g = _full_set_g(st.integer_partitions(), n)
        band = _band(g)
        assert band == n if case == "dense" else 1 <= band < n // 2
        q, shift = sd._recursion_coeffs(g, n)
        q_ref, shift_ref = _ref_recursion_coeffs(g, n)
        assert shift.max() == shift_ref
        assert (shift_ref > 0) == (case == "set_partitions_rescaled")
        # values q 2^shift; the one-step loop keeps one exponent for all
        normal = q_ref >= sys.float_info.min
        got = np.ldexp(q, shift - shift_ref)
        assert np.all(np.abs(got - q_ref)[normal] <= 1e-12 * q_ref[normal]), case
        if case != "set_partitions_rescaled":
            assert np.all(normal), case
            return
        # past the zero tail at beta = 44 the blocks are as wide as the
        # growth bound allows, and q is rescaled between them
        assert sum(widths) == n and max(widths) > sd._BLOCK
        # the loop flushed q[k] = x^k B_k / k! to 0 or a subnormal for
        # k <= 2776; the recursion kept them, so check them against the
        # Bell numbers
        flushed = np.flatnonzero(~normal)
        assert flushed[0] == 0 and flushed[-1] == 2776 == flushed.size - 1
        assert np.all(q >= sys.float_info.min)
        x = choose_x(st.set_partitions(), n)
        with mpmath.workdps(30):
            for k in (*range(0, 2777, 97), 2776):
                want = float(k * mpmath.log(x) + mpmath.log(mpmath.bell(k))
                             - mpmath.loggamma(k + 1))
                log_q = math.log(q[k]) + int(shift[k]) * math.log(2.0)
                assert abs(log_q - want) <= 1e-12 * max(1.0, abs(want)), k

    @pytest.mark.parametrize("case", ["band_inside_a_block",
                                      "band_across_a_block_edge",
                                      "selection_R_B"])
    def test_signed_g_matches_one_step_loop(self, case):
        if case == "band_inside_a_block":
            n, g = 1000, _banded_g(40, 1000, sign_every=2)
        elif case == "band_across_a_block_edge":
            n, g = 1000, _banded_g(sd._BLOCK + 5, 1000, sign_every=3)
        else:
            # squarefree_polynomials(2), B = {1, 3, 5, 7, 9}: band 1080
            n = 2000
            spec = st.squarefree_polynomials(2)
            g = sd._g_array(spec, (1, 3, 5, 7, 9), n,
                            TiltedParams(choose_x(spec, n), 1))
        assert np.any(g < 0) and 1 <= _band(g) < n
        q, shift = sd._recursion_coeffs(g, n)
        q_ref, shift_ref = _ref_recursion_coeffs(g, n)
        assert _close(q * 2.0 ** (shift - shift_ref), q_ref)


def _entrywise_gap(g, n, q, shift):
    """The largest relative gap of q 2^shift to the one-step loop, over the
    entries the loop keeps normal."""
    q_ref, shift_ref = _ref_recursion_coeffs(g, n)
    normal = q_ref >= sys.float_info.min
    got = np.ldexp(q, shift - shift_ref)
    return float(np.max(np.abs(got - q_ref)[normal] / q_ref[normal]))


def _in_place_solves(monkeypatch):
    """(off, m, x[off:off+m]) of every block solve of q in place, in order:
    the block's bounds and the q its solve left there."""
    solves = []
    orig = sd._BandSolve.__call__

    def spy(self, off, m):
        info = orig(self, off, m)
        solves.append((off, m, self.x[off:off + m].copy()))
        return info

    monkeypatch.setattr(sd._BandSolve, "__call__", spy)
    return solves


def _refusal_row(g, n, solves, got):
    """The row k* where a zero tail was refused, from the block solves of
    one recursion on g with no rescale.  Every block starts where the one
    before ended, except the one after the refused block, which starts at
    k*, inside it: so no index is solved again once it is kept.  k* is
    checked here to be the first row of the refused block whose bound cut
    max_{j<=k-beta-1} q[j] (q[0] = 1 counted) passes 2^-60 k q[k], with
    q[k] as that block's solve left it."""
    q, shift = got
    assert not shift.any()
    band = _band(g)
    beta = sd._tail_model(g, n, band)[0]
    cut = float(g[beta + 1:band + 1].sum())
    starts = [off for off, _, _ in solves]
    ends = [off + m for off, m, _ in solves]
    assert starts[0] == 1 and ends[-1] == n + 1
    assert all(a < b for a, b in zip(starts, starts[1:]))
    refused = [i for i in range(len(solves) - 1) if starts[i + 1] != ends[i]]
    assert len(refused) == 1
    off, m, x = solves[refused[0]]
    qb = np.r_[q[:off], x]
    k = np.arange(max(off, beta + 1), off + m)
    fails = cut * np.maximum.accumulate(qb)[k - beta - 1] > 2.0 ** -60 * k * qb[k]
    assert fails.any()
    k_star = int(k[np.argmax(fails)])
    assert starts[refused[0] + 1] == k_star
    return k_star


class TestTailModel:
    # past a short band beta, _recursion_coeffs reads g as a certified
    # tail model c rho^i: geometric (c > 0) or zero (c = 0)

    @staticmethod
    def _band_builds(monkeypatch):
        calls = []
        orig = sd._band_system

        def spy(g, n_max, beta, c, rho):
            calls.append((beta, c))
            return orig(g, n_max, beta, c, rho)

        monkeypatch.setattr(sd, "_band_system", spy)
        return calls

    @pytest.mark.parametrize("B", [None, (1, 3, 5, 7, 9)],
                             ids=["full_set", "complement"])
    def test_geometric_tail_of_polynomials(self, B, monkeypatch):
        # sum_{d | i} d m_d = 2^i, so g_i = (2x)^i on the full set, and the
        # complement of B differs from it by 2^-i relative past i = 9
        n = 16000
        spec = st.polynomials(2)
        params = TiltedParams(choose_x(spec, n), 1)
        idx = range(1, n + 1) if B is None else sd.complement(B, n)
        g = sd._g_array(spec, sd.index_set(idx), n, params)
        beta, c, rho = sd._tail_model(g, n, _band(g))
        assert c > 0 and beta <= 128
        calls = self._band_builds(monkeypatch)
        widths = _block_widths(monkeypatch)
        q, shift = sd._recursion_coeffs(g, n)
        assert calls == [(beta, c)] and sum(widths) == n
        if B is None:  # beta = 1: two or three wide blocks, at most 4
            assert beta <= 2 and len(widths) <= 4
        assert _entrywise_gap(g, n, q, shift) <= 1e-12

    def test_zero_tail_of_integer_partitions(self, monkeypatch):
        n = 16000
        g = _full_set_g(st.integer_partitions(), n)
        beta, c, _ = sd._tail_model(g, n, _band(g))
        assert c == 0 and 1 <= beta < n // 2
        calls = self._band_builds(monkeypatch)
        q, shift = sd._recursion_coeffs(g, n)
        assert calls == [(beta, 0.0)]  # no block refused the cut
        assert _entrywise_gap(g, n, q, shift) <= 1e-12

    @pytest.mark.parametrize("spec", [st.permutations(), st.esf(Fraction(1, 2)),
                                      st.two_regular_graphs()],
                             ids=lambda s: s.name)
    def test_geometric_tail_of_logarithmic_assemblies(self, spec, monkeypatch):
        # g_i = theta kappa x^i exactly (from i = 3 for 2-regular graphs),
        # formed from the closed-form log(m_i / i!) = log kappa - log i
        n = 16000
        g = _full_set_g(spec, n)
        beta, c, rho = sd._tail_model(g, n, _band(g))
        assert c > 0 and beta <= 2
        calls = self._band_builds(monkeypatch)
        widths = _block_widths(monkeypatch)
        q, shift = sd._recursion_coeffs(g, n)
        assert calls == [(beta, c)] and sum(widths) == n and len(widths) <= 4
        assert _entrywise_gap(g, n, q, shift) <= 1e-12

    def test_perturbed_tail_is_refused(self):
        # one tail entry 1e-9 off the geometric g of polynomials(2): the
        # model no longer holds past beta, and g has no negligible tail
        n = 4000
        g = _full_set_g(st.polynomials(2), n)
        assert sd._tail_model(g, n, n)[1] > 0
        g[n - 5] *= 1 + 1e-9
        assert sd._tail_model(g, n, n) == (n, 0.0, 1.0)
        q, shift = sd._recursion_coeffs(g, n)
        assert _entrywise_gap(g, n, q, shift) <= 1e-12

    def test_refused_zero_tail_block_runs_the_full_band(self, monkeypatch):
        # g_i = 2^-i: q_k = 2^-k falls faster than the tail past beta = 60,
        # so row beta + 1, whose only omitted term from q is g_61 q[0], is
        # the first to fail its bound cut q[0]: rows 1..60 are kept and the
        # full band runs from 61; the recursion is the full band's, bit for
        # bit (every sum here is exact)
        n = 2000
        g = np.zeros(n + 1)
        g[1:] = 0.5 ** np.arange(1, n + 1)
        band = _band(g)
        beta, c, _ = sd._tail_model(g, n, band)
        assert c == 0 and beta == 60 and band < n
        calls = self._band_builds(monkeypatch)
        solves = _in_place_solves(monkeypatch)
        got = sd._recursion_coeffs(g, n)
        assert calls == [(beta, 0.0), (band, 0.0)]
        assert _refusal_row(g, n, solves, got) == beta + 1
        cut = float(g[beta + 1:].sum())
        assert got[0][0] == 1.0 and cut * got[0][0] > \
            2.0 ** -60 * (beta + 1) * got[0][beta + 1]
        monkeypatch.setattr(sd, "_TAIL_MIN_N", n)
        want = sd._recursion_coeffs(g, n)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_zero_tail_refused_mid_recursion(self, monkeypatch):
        # g_i = 1 up to 200 and 1e-36 from 201 to 500: q_k is about 1 up to
        # k = 200 and then falls faster than any power, so the zero tail past
        # beta = 200 holds for the first blocks and fails in a later one;
        # the rows of that block before its first failing row are kept, and
        # the full band runs from there
        n = 4000
        g = np.zeros(n + 1)
        g[1:201] = 1.0
        g[201:501] = 1e-36
        assert sd._tail_model(g, n, _band(g)) == (200, 0.0, 1.0)
        calls = self._band_builds(monkeypatch)
        solves = _in_place_solves(monkeypatch)
        q, shift = sd._recursion_coeffs(g, n)
        assert calls == [(200, 0.0), (500, 0.0)]
        k = _refusal_row(g, n, solves, (q, shift))
        assert solves[1][0] < k and solves[-1][0] + solves[-1][1] == n + 1
        assert _entrywise_gap(g, n, q, shift) <= 1e-12

    def test_zero_tail_refused_in_a_wide_block(self, monkeypatch):
        # the tv S_B of set partitions at n = 1000 (the complement of
        # B = {1, 4, 6, 8, 10}): beta = 37 of band 258, so its blocks are
        # wide, and the second fails from row 617; rows up to 616 are kept
        n = 1000
        spec = st.set_partitions()
        g = sd._g_array(spec, sd.complement((1, 4, 6, 8, 10), n), n,
                        TiltedParams(choose_x(spec, n), 1))
        assert _band(g) == 258
        assert sd._tail_model(g, n, 258) == (37, 0.0, 1.0)
        calls = self._band_builds(monkeypatch)
        solves = _in_place_solves(monkeypatch)
        q, shift = sd._recursion_coeffs(g, n)
        assert calls == [(37, 0.0), (258, 0.0)]
        assert _refusal_row(g, n, solves, (q, shift)) == 617
        assert _entrywise_gap(g, n, q, shift) <= 1e-12

    def test_short_recursions_short_bands_and_signed_g_read_the_whole_band(
            self, monkeypatch):
        # no model is fitted up to n_max = _TAIL_MIN_N, for a band that no
        # model could shorten by _BLOCK, or for signed g
        fits = []
        orig = sd._tail_model
        monkeypatch.setattr(sd, "_tail_model",
                            lambda *a: fits.append(a[1:]) or orig(*a))
        calls = self._band_builds(monkeypatch)
        n = sd._TAIL_MIN_N
        g = np.zeros(n + 1)
        g[1:] = 0.5 ** np.arange(1, n + 1)  # a zero tail past about 60
        sd._recursion_coeffs(g, n)
        n = 2000
        sd._recursion_coeffs(_banded_g(sd._BLOCK + 1, n), n)
        spec = st.squarefree_polynomials(2)
        g2 = sd._g_array(spec, (1, 3, 5, 7, 9), n,
                         TiltedParams(choose_x(spec, n), 1))
        sd._recursion_coeffs(g2, n)
        assert not fits
        assert calls == [(_band(g), 0.0), (sd._BLOCK + 1, 0.0), (_band(g2), 0.0)]

    @pytest.mark.parametrize("size", [1, 2, 3, 64, 999, 1000, 8000])
    def test_median_is_numpy_median(self, size):
        # _tail_model's median, bit for bit np.median's, which imports
        # numpy.ma on its first call
        rng = np.random.default_rng(size)
        for scale in (1e-3, 1.0, 1e3):
            y = rng.normal(size=size) * scale
            for arr in (y, np.round(y, 1)):
                assert sd._median(arr) == float(np.median(arr))

    @pytest.mark.parametrize("m", [sd._BLOCK, 37])
    def test_direct_tbtrs_is_scipys_tbtrs(self, m, tbtrs_route):
        # the block solve calls LAPACK tbtrs on the Fortran view of the band
        # storage, in place in x: bitwise what scipy's tbtrs gives on the
        # same band, on a full block and on a short last one, for both
        # bindings, and within rounding of a dense triangular solve
        n = 1000
        g = _full_set_g(st.integer_partitions(), n)
        ab = sd._band_system(g, n, _band(g), 0.0, 1.0)[3]
        ab[:, 0] = np.arange(600, 600 + len(ab))
        kd = ab.shape[1] - 1
        r = np.random.default_rng(m).uniform(0.5, 2.0, m)[::-1]
        q = sd._aligned_zeros(n + 1)
        q[600:600 + m] = r
        info = sd._BandSolve(ab, q)(600, m)
        want, want_info = scipy_dtbtrs(ab[:m].T, r, uplo="L")
        assert info == want_info == 0 and np.array_equal(q[600:600 + m], want)
        assert not q[:600].any() and not q[600 + m:].any()
        lower = np.diag(ab[:m, 0])
        for i in range(1, min(kd, m - 1) + 1):
            lower += np.diag(ab[:m - i, i], -i)
        dense = solve_triangular(lower, r, lower=True, check_finite=False)
        assert np.allclose(q[600:600 + m], dense, rtol=1e-13, atol=0)

    def test_interleaved_band_of_a_geometric_tail(self):
        # with a geometric tail the unknowns are T_k, q_k in turn: the q rows
        # read -g_i 2i rows up and -1 at T_k, the T rows -rho at T_{k-1}
        # and -c rho^(beta+1) 2 beta + 1 rows up
        n, beta, c, rho = 1000, 3, 0.25, 0.9
        g = np.zeros(n + 1)
        g[1:] = c * rho ** np.arange(1, n + 1)
        g[1:4] = (0.5, 0.4, 0.3)
        width, span, grev, ab = sd._band_system(g, n, beta, c, rho)
        assert width == n and ab.shape == (2 * n, 2 * beta + 2)
        assert ab.nbytes <= 8 * sd._BAND_DOUBLES
        assert np.array_equal(ab[0], [1.0, -1.0, -rho, 0, 0, 0, 0, 0])
        assert np.array_equal(ab[1, 1:], [0, -0.5, 0, -0.4, 0, -0.3,
                                          -c * rho ** 4])
        assert np.array_equal(grev[::-1], np.r_[g[:4], np.zeros(span - 3)])


@pytest.fixture(params=["numpy_lapack", "scipy"])
def tbtrs_route(request, monkeypatch):
    """Runs a test on both bindings of dtbtrs: the one in numpy's LAPACK
    and scipy's, forced by clearing the numpy binding."""
    if request.param == "scipy":
        monkeypatch.setattr(sd, "_DTBTRS", None)
    elif sd._DTBTRS is None:
        pytest.skip("numpy's LAPACK exports no ILP64 dtbtrs here")
    return request.param


def _recursion_both_routes(g, n, monkeypatch):
    """(v, shift) of _recursion_coeffs through numpy's dtbtrs and through
    scipy's."""
    got = sd._recursion_coeffs(g, n)
    with monkeypatch.context() as patch:
        patch.setattr(sd, "_DTBTRS", None)
        want = sd._recursion_coeffs(g, n)
    return got, want


@pytest.mark.skipif(sd._DTBTRS is None,
                    reason="numpy's LAPACK exports no ILP64 dtbtrs here")
class TestTbtrsBindingsAgree:
    # the block solve through numpy's LAPACK and through scipy's fallback
    # return the same (v, shift), bit for bit

    @staticmethod
    def _assert_same(got, want):
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_binding_is_ilp64(self):
        assert sd._DTBTRS.__name__ in ("scipy_dtbtrs_64_", "dtbtrs_64_")

    @pytest.mark.parametrize("n", [1000, 4000])
    @pytest.mark.parametrize("spec", [s for s in REFERENCE_SPECS
                                      if "builtin" in s.params],
                             ids=lambda s: s.name)
    def test_every_builtin_full_set(self, spec, n, monkeypatch):
        g = _full_set_g(spec, n)
        self._assert_same(*_recursion_both_routes(g, n, monkeypatch))

    @pytest.mark.parametrize("spec", [st.integer_partitions(),
                                      st.polynomials(2)],
                             ids=lambda s: s.name)
    def test_full_set_at_16000(self, spec, monkeypatch):
        n = 16000
        g = _full_set_g(spec, n)
        self._assert_same(*_recursion_both_routes(g, n, monkeypatch))

    def test_five_index_r_b(self, monkeypatch):
        n, spec = 4000, st.set_partitions()
        g = sd._g_array(spec, (1, 3, 5, 7, 9), n,
                        TiltedParams(choose_x(spec, n), 1))
        self._assert_same(*_recursion_both_routes(g, n, monkeypatch))

    def test_short_last_block(self, monkeypatch):
        n = 3 * sd._BLOCK + 5
        got, want = _recursion_both_routes(_banded_g(50, n), n, monkeypatch)
        self._assert_same(got, want)

    def test_refused_zero_tail_block(self, monkeypatch):
        n = 2000
        g = np.zeros(n + 1)
        g[1:] = 0.5 ** np.arange(1, n + 1)
        beta, c, _ = sd._tail_model(g, n, _band(g))
        assert c == 0 and beta < _band(g)
        self._assert_same(*_recursion_both_routes(g, n, monkeypatch))


@pytest.mark.skipif(sd._DTBTRS is None,
                    reason="numpy's LAPACK exports no ILP64 dtbtrs here")
def test_cli_prints_the_same_json_on_both_bindings(tmp_path, monkeypatch):
    # prob-t on integer_partitions at n = 16000, tv there (R_B takes the
    # periodic tail of band lcm(B) = 36) and tv on polynomials(2) (R_B
    # refuses that tail where q nears the smallest normal double, keeps
    # the rows before it and stops once q is 0 over the full band) print
    # the same JSON, floats by repr, through numpy's dtbtrs and scipy's.
    # A spy on scipy's dtbtrs, which _BandSolve imports where the numpy
    # binding is cleared, counts the calls each request makes to scipy's
    specs = write_specs(tmp_path)
    scipy_calls = []

    def spy(*args, **kwargs):
        scipy_calls.append(None)
        return scipy_dtbtrs(*args, **kwargs)
    monkeypatch.setattr("scipy.linalg.lapack.dtbtrs", spy)

    def routes():
        """[(exit code, stdout, calls to scipy's dtbtrs)] per request."""
        got = []
        for spec, *argv in (("intpart", "prob-t"),
                            ("intpart", "tv", "--B", "1,2,3,4,9"),
                            ("poly2", "tv", "--B", "1,2,6,7,10")):
            before, buf = len(scipy_calls), io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run([argv[0], "--spec", specs[spec], "--n",
                                "16000", "--choose-x", "exact_mean",
                                "--format", "json", *argv[1:]])
            got.append((code, buf.getvalue(), len(scipy_calls) - before))
        return got

    numpy_route = routes()
    monkeypatch.setattr(sd, "_DTBTRS", None)
    scipy_route = routes()
    assert [calls for _, _, calls in numpy_route] == [0, 0, 0]
    assert all(calls > 0 for _, _, calls in scipy_route), scipy_route
    assert [code for code, _, _ in numpy_route] == [0, 0, 0]
    assert ([out for _, out, _ in numpy_route]
            == [out for _, out, _ in scipy_route])


def test_zero_on_the_diagonal_is_info(tbtrs_route):
    # LAPACK's info > 0 names the first zero on the diagonal (1-based)
    b = 8
    ab = np.ones((b, 3))
    ab[5, 0] = 0.0
    q = sd._aligned_zeros(20)
    q[3:3 + b] = 1.0
    assert sd._BandSolve(ab, q)(3, b) == 6


def test_q_starts_on_a_64_byte_boundary():
    for n in (1, 7, 1000, 4001):
        q = sd._aligned_zeros(n)
        assert q.ctypes.data % 64 == 0 and q.shape == (n,) and not q.any()


FRACTION_MSET = st.from_m_list(
    "multiset", [Fraction(1, 3), 2, Fraction(5, 7), 0, 3, Fraction(7, 2), 1,
                 0, 2, Fraction(1, 2)], name="mset_fraction_m")
POLY2 = st.polynomials(2)

# (spec, n, B): the tv sets of the analytic-cold benchmark seeds, lcm 36 to
# 2520 (for the custom m list, of the indices with m_k != 0)
PERIODIC_CASES = [
    (INTPART, 1000, (1, 3, 4, 5, 9)),
    (INTPART, 4000, (1, 2, 6, 8, 9)),
    (INTPART, 16000, (1, 2, 3, 4, 9)),
    (INTPART, 16000, (1, 3, 4, 5, 7)),
    (INTPART, 16000, (5, 7, 8, 9, 10)),
    (POLY2, 1000, (3, 4, 6, 8, 9)),
    (POLY2, 4000, (2, 3, 4, 7, 10)),
    (POLY2, 16000, (1, 2, 6, 7, 10)),
    (FRACTION_MSET, 1000, (2, 4, 5, 6, 9)),
    (FRACTION_MSET, 4000, (6, 7, 8, 9, 10)),
    (FRACTION_MSET, 16000, (1, 2, 3, 5, 7)),
]


def _periodic_g(spec, B, n, theta=1):
    """(g, P) of R_B at the exact-mean x, P = _period of B's active
    indices."""
    params = TiltedParams(choose_x(spec, n, theta), theta)
    B = sd.index_set(B)
    active = sd._active_indices(spec, B, n)
    return sd._g_array(spec, B, n, params, active), sd._period(active[0], n)


def _period_fits(monkeypatch):
    """The (r, cut) that _period_model returns, in order."""
    fits = []
    orig = sd._period_model

    def spy(*args):
        fits.append(orig(*args))
        return fits[-1]

    monkeypatch.setattr(sd, "_period_model", spy)
    return fits


class TestPeriodicTail:
    # at theta = 1 the g of a multiset's R_B has g_{i+P} = x^P g_i, P the
    # lcm of B's active indices, so the recursion reads band P and one
    # row-dependent entry at offset P:
    # k q_k = sum_{i<P} g_i q_{k-i} + (g_P + r (k - P)) q_{k-P}

    @pytest.mark.parametrize(
        "spec,n,B", PERIODIC_CASES,
        ids=lambda v: v.name if isinstance(v, st.StructureSpec) else str(v))
    def test_matches_one_step_loop(self, spec, n, B, monkeypatch):
        g, P = _periodic_g(spec, B, n)
        lm = log_m_array(spec, n)
        assert P == math.lcm(*(k for k in B if lm[k] != -np.inf))
        fits = _period_fits(monkeypatch)
        calls = TestTailModel._band_builds(monkeypatch)
        q, shift = sd._solve_recursion(g, n, P)
        # the model is kept; polynomials(2) at n >= 4000, whose g has
        # subnormal entries, refuses it at the first row whose bound fails,
        # where q nears the smallest normal double (k = 1284 at n = 16000,
        # q falls below it at 1291), as it refuses the zero tail: the rows
        # before it are kept and the full band runs from there until q is
        # exactly 0 over band + 1 entries (test_stops_once_q_is_zero)
        assert len(fits) == 1 and fits[0][0] > 0 and calls[0] == (P, 0.0)
        assert calls[1:] == ([(_band(g), 0.0)] if spec is POLY2 and n >= 4000
                             else [])
        assert _entrywise_gap(g, n, q, shift) <= 1e-12

    @pytest.mark.parametrize("n,B", [(16000, (1, 2, 6, 7, 10)),
                                     (4000, (2, 3, 4, 7, 10))])
    def test_stops_once_q_is_zero(self, n, B, monkeypatch):
        # polynomials(2)'s R_B underflows to exact zeros past k = 1349 or
        # so; once the last band + 1 entries are 0 every later q is 0, and
        # the block solves stop there rather than run to n
        g, P = _periodic_g(POLY2, B, n)
        solves = _in_place_solves(monkeypatch)
        q, shift = sd._solve_recursion(g, n, P)
        end = solves[-1][0] + solves[-1][1]
        assert end < 3000 and not shift.any()
        assert not q[end - _band(g) - 1:].any()
        assert _entrywise_gap(g, n, q, shift) <= 1e-12

    def test_production_route_passes_the_period(self, monkeypatch):
        # a multiset's R_B reads its period; its full set, a complement, a
        # selection and n_max <= _TAIL_MIN_N read none
        periods = []
        orig = sd._solve_recursion
        monkeypatch.setattr(sd, "_solve_recursion",
                            lambda g, n, P: periods.append(P) or orig(g, n, P))
        for spec, n, B in [(INTPART, 4000, (1, 2, 6, 8, 9)),
                           (INTPART, 4000, range(1, 4001)),
                           (INTPART, 4000, sd.complement((1, 2, 6, 8, 9), 4000)),
                           (INTPART, sd._TAIL_MIN_N, (1, 2, 3)),
                           (DISTINCT, 4000, sd.complement((1, 2, 3), 4000))]:
            periods.clear()
            params = TiltedParams(choose_x(spec, n), 1)
            sd.weighted_sum_pmf(spec, B, n, params)
            assert periods == ([72] if len(B) == 5 else [0]), (n, len(B))

    @pytest.mark.parametrize("spec,n,B", [
        (INTPART, 4000, (1, 2, 6, 8, 9)),
        (INTPART, 16000, (1, 2, 3, 4, 9)),
        (POLY2, 4000, (2, 3, 4, 7, 10)),
        (FRACTION_MSET, 4000, (2, 4, 5, 6, 9)),
    ], ids=["intpart-4000", "intpart-16000", "poly2-4000", "fraction-m"])
    def test_theta_2_keeps_todays_route(self, spec, n, B, monkeypatch):
        # g_{i+P} / g_i = theta^(P/k) x^P differs by k: the model is
        # refused and the recursion reads the bands it reads without a
        # period, bit for bit
        g, P = _periodic_g(spec, B, n, theta=2)
        assert P and sd._period_model(g, n, _band(g), P) == (0.0, 0.0)
        calls = TestTailModel._band_builds(monkeypatch)
        got = sd._solve_recursion(g, n, P)
        with_period, calls[:] = calls[:], []
        want = sd._recursion_coeffs(g, n)
        assert with_period == calls
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_perturbed_period_is_refused(self):
        # one normal entry past P off by 1e-9: the model no longer holds
        n, B = 4000, (1, 2, 6, 8, 9)
        g, P = _periodic_g(INTPART, B, n)
        assert sd._period_model(g, n, n, P)[0] > 0
        g[3 * P + 5] *= 1 + 1e-9
        assert sd._period_model(g, n, n, P) == (0.0, 0.0)

    def test_exact_law_of_integer_partitions_r_b(self, monkeypatch):
        # P(R_B = r) = c_B(r) x^r prod_{k in B} (1 - x^k), c_B(r) the
        # partitions of r into parts from B, counted by an integer DP
        n, B = 16000, (1, 2, 3, 4, 9)
        x = choose_x(INTPART, n)
        c = [1] + [0] * n
        for k in B:
            for r in range(k, n + 1):
                c[r] += c[r - k]
        with mpmath.workdps(40):
            lx = mpmath.log(mpmath.mpf(x))
            lz = mpmath.fsum(mpmath.log(1 - mpmath.exp(k * lx)) for k in B)
            want = np.array([float(c[r] * mpmath.exp(r * lx + lz))
                             for r in range(n + 1)])
        fits = _period_fits(monkeypatch)
        p = sd.weighted_sum_pmf(INTPART, B, n, TiltedParams(x, 1)).p
        assert len(fits) == 1 and fits[0][0] > 0
        assert np.all(want >= sys.float_info.min)
        assert float(np.max(np.abs(p - want) / want)) <= 1e-12

    @pytest.mark.skipif(sd._DTBTRS is None,
                        reason="numpy's LAPACK exports no ILP64 dtbtrs here")
    @pytest.mark.parametrize("spec,n,B", [
        (INTPART, 16000, (1, 2, 3, 4, 9)),   # P = 36: the column at offset P
        (INTPART, 16000, (1, 3, 4, 5, 7)),   # P = 420: right-hand sides only
        (POLY2, 16000, (1, 2, 6, 7, 10)),    # refused past k = 1291
    ], ids=["P36", "P420", "refused"])
    def test_both_dtbtrs_bindings_agree(self, spec, n, B, monkeypatch):
        g, P = _periodic_g(spec, B, n)
        widths = _block_widths(monkeypatch)
        got = sd._solve_recursion(g, n, P)
        assert (max(widths) > P) == (P == 36)
        with monkeypatch.context() as patch:
            patch.setattr(sd, "_DTBTRS", None)
            want = sd._solve_recursion(g, n, P)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


SEED_SPECS = [
    st.integer_partitions(), st.polynomials(2), st.polynomials(3),
    st.necklaces(2), st.necklaces(3), st.distinct_partitions(),
    st.distinct_odd_partitions(), st.squarefree_polynomials(2),
    st.squarefree_polynomials(3),
    st.from_m_list("multiset", [1, 2 ** 60, 0, 3, 2 ** 40, 7] * 12,
                   name="mset_2_60"),
    st.from_m_list("multiset", [Fraction(1, 3), 2, Fraction(5, 7), 0,
                                2 ** 60, Fraction(2 ** 61, 3)] * 12,
                   name="mset_fraction"),
    st.from_m_list("selection", [1, 0, 2 ** 60, 3, 2 ** 59 + 1, 5] * 12,
                   name="sel_2_60"),
]

# (x, theta, n); x None is the exact-mean x at n
SEED_POINTS = {
    "tiny_weight": (1e-3, 1, 200),         # lw < log 1e-8 from i = 3
    "subnormal_weight": (0.5, 1, 2000),    # lw < -708 past i = 1021, and
                                           # log m_i >= 700 past i ~ 1010
                                           # for q = 2 polynomials
    "exact_mean": (None, 1, 2000),
    "exact_mean_theta_2": (None, 2, 1000),
    "exact_mean_theta_half": (None, Fraction(1, 2), 1000),
    "near_the_pole": (0.999, 1, 2000),      # -inf terms for polynomials
}


class TestLogSeed:
    def test_every_multiset_and_selection_builtin_covered(self):
        names = {sp.params.get("builtin") for sp in SEED_SPECS}
        want = {sp.params.get("builtin") for sp in REFERENCE_SPECS
                if sp.kind is not st.Kind.ASSEMBLY}
        assert want - {None} <= names

    @pytest.mark.parametrize("point", list(SEED_POINTS))
    @pytest.mark.parametrize("spec", SEED_SPECS, ids=lambda s: s.name)
    def test_matches_reference(self, spec, point):
        x, theta, n = SEED_POINTS[point]
        if x is None:
            x = choose_x(spec, n, theta)
        params = TiltedParams(x, theta)
        rng = random.Random(point)
        gapped = sd.index_set(rng.sample(range(1, n + 1), n // 3))
        for B in (range(1, n + 1), gapped):
            got = sd.log_seed(spec, B, params)
            want = _ref_log_seed(spec, B, params)
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 2.0 ** -50 * abs(want), B

    @pytest.mark.parametrize("spec", [s for s in SEED_SPECS
                                      if s.kind is st.Kind.MULTISET],
                             ids=lambda s: s.name)
    def test_weight_reaching_1_is_a_domain_error(self, spec):
        # theta x < 1 exactly, but theta e^(log x) rounds to 1
        params = TiltedParams(Fraction(1, 2) - Fraction(1, 10 ** 30), 2)
        with pytest.raises(ParameterDomainError, match="reached 1"):
            sd.log_seed(spec, range(1, 50), params)

    @pytest.mark.parametrize("n", [1000, 2000])
    @pytest.mark.parametrize("spec", [st.integer_partitions(), st.polynomials(2),
                                      st.distinct_partitions(),
                                      st.squarefree_polynomials(2)],
                             ids=lambda s: s.name)
    def test_matches_mpmath_from_exact_counts(self, spec, n):
        # sum m_i log(1 -+ x^i) in 40 digits from the exact m_i.  The float
        # log m_i of the q = 2 families is off by up to i log 2 u, which
        # bounds the error of the sum by about n log 2 u = 1.5e-13 absolute
        x = choose_x(spec, n)
        with mpmath.workdps(40):
            mx = mpmath.mpf(x)
            if spec.kind is st.Kind.MULTISET:
                want = mpmath.fsum(spec.m(i) * mpmath.log1p(-mx ** i)
                                   for i in range(1, n + 1))
            else:
                want = -mpmath.fsum(spec.m(i) * mpmath.log1p(mx ** i)
                                    for i in range(1, n + 1))
        got = sd.log_seed(spec, range(1, n + 1), TiltedParams(x, 1))
        assert got == pytest.approx(float(want), rel=1e-13, abs=0)


class TestExactCountReferences:
    """Above the cutoff, P(T_n = n) = P(T_n = 0) x^n p(n) at theta = 1,
    with p(n) exact from the builtin's closed-form table and the seed
    P(T_n = 0) = prod_i (1 - x^i)^(m_i) (multiset) or (1 + x^i)^(-m_i)
    (selection) in 50-digit mpmath from the exact m_i: a reference for the
    float recursion, its tail models and the certified selection recursion
    that shares neither their arithmetic nor the float seed of both prob-t
    columns."""

    @pytest.mark.parametrize("make,n", [
        (st.integer_partitions, 2000), (st.integer_partitions, 4000),
        (st.integer_partitions, 16000), (st.distinct_partitions, 2000),
        (st.distinct_odd_partitions, 2000),
        (lambda: st.squarefree_polynomials(2), 2000),
        # p(n) = 2^n: the Moebius fill of log m_i, the multiset seed, g and
        # the recursion
        (lambda: st.polynomials(2), 16000),
    ], ids=["integer_partitions-2000", "integer_partitions-4000",
            "integer_partitions-16000", "distinct_partitions-2000",
            "distinct_odd_partitions-2000", "squarefree_polynomials(2)-2000",
            "polynomials(2)-16000"])
    def test_recursion_matches_exact_count(self, make, n):
        spec = make()
        x = choose_x(spec, n)
        p_n = spec.ptheta_fn(n, 1)[n]
        sign = 1 if spec.kind is st.Kind.MULTISET else -1
        with mpmath.workdps(50):
            mx = mpmath.mpf(x)
            lseed = sign * mpmath.fsum(spec.m(i) * mpmath.log1p(-sign * mx ** i)
                                       for i in range(1, n + 1) if spec.m(i))
            want = mpmath.exp(lseed + n * mpmath.log(mx)) * p_n
        got = sd.prob_T_eq_n(spec, n, TiltedParams(x, 1))
        assert got == pytest.approx(float(want), rel=1e-13, abs=0)

    def test_set_partitions_match_the_bell_number(self):
        # at n = 16000 g underflows to zeros past i = 285 and q is rescaled
        # by 2^-512 five times; P(T_n = n) = e^-(e^x - 1) x^n B_n / n!
        # from the Bell number B_n in mpmath
        spec, n = st.set_partitions(), 16000
        x = choose_x(spec, n)
        with mpmath.workdps(30):
            mx = mpmath.mpf(x)
            want = mpmath.exp(-mpmath.expm1(mx) + n * mpmath.log(mx)
                              + mpmath.log(mpmath.bell(n))
                              - mpmath.loggamma(n + 1))
        got = sd.prob_T_eq_n(spec, n, TiltedParams(x, 1))
        assert got == pytest.approx(float(want), rel=1e-9, abs=0)


class TestTailModelClosedForms:
    # past a short band the recursion reads a certified tail model of g:
    # geometric for polynomials(2), whose g_i = (2x)^i, and for
    # permutations and esf(1/2), whose g_i = theta kappa x^i is formed
    # from the closed-form log(m_i / i!) = log kappa - log i.  At the
    # exact-mean x, P(T_n = n) matches its closed form in 40-digit mpmath
    @pytest.mark.parametrize("n", [4000, 16000])
    @pytest.mark.parametrize("make,kappa", [
        (st.permutations, Fraction(1)),
        (lambda: st.esf(Fraction(1, 2)), Fraction(1, 2)),
    ], ids=["permutations", "esf(1/2)"])
    def test_ewens_family(self, make, kappa, n):
        # seed x^n (kappa theta)^(n) / n!, seed = exp(-theta kappa sum x^i / i)
        spec = make()
        x = choose_x(spec, n)
        got = sd.prob_T_eq_n(spec, n, TiltedParams(x, 1))
        with mpmath.workdps(40):
            mx = mpmath.mpf(x)
            mk = mpmath.mpf(kappa.numerator) / kappa.denominator
            log_seed = -mk * mpmath.fsum(mx ** i / i for i in range(1, n + 1))
            want = (mpmath.exp(log_seed + n * mpmath.log(mx))
                    * mpmath.rf(mk, n) / mpmath.factorial(n))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [4000, 16000])
    def test_polynomials_conditioned_block(self, n):
        # the P(T_n = n) of conditioned_block, the convolution of R_B and
        # S_B at n for B = {1, 3, 5, 7, 9}, against seed (2x)^n, the seed
        # prod (1 - x^i)^(m_i) from the exact Moebius counts m_i
        spec = st.polynomials(2)
        x = choose_x(spec, n)
        got = sd.conditioned_block(spec, (1, 3, 5, 7, 9), n,
                                   TiltedParams(x, 1))[2]
        with mpmath.workdps(40):
            mx = mpmath.mpf(x)
            log_seed = mpmath.fsum(spec.m(i) * mpmath.log1p(-mx ** i)
                                   for i in range(1, n + 1))
            want = mpmath.exp(log_seed + n * mpmath.log(2 * mx))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0)


class TestOneRecursionPerRequest:
    @staticmethod
    def _spy(monkeypatch):
        calls = []
        orig = sd._recursion_coeffs

        def spy(g, n_max):
            calls.append(n_max)
            return orig(g, n_max)

        monkeypatch.setattr(sd, "_recursion_coeffs", spy)
        return calls

    @pytest.mark.parametrize("doc", [
        {"kind": "assembly", "builtin": "set_partitions"},
        {"kind": "multiset", "builtin": "integer_partitions"},
        {"kind": "multiset", "builtin": "polynomials", "params": {"q": 2}},
    ], ids=lambda d: d["builtin"])
    def test_prob_t_runs_one_recursion(self, doc, tmp_path, monkeypatch,
                                       capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        n = st.EXACT_CUTOFF + 488
        calls = self._spy(monkeypatch)
        assert cli.run(["prob-t", "--spec", str(path), "--n", str(n),
                        "--choose-x", "exact_mean"]) == 0
        assert calls == [n]
        gap = float(capsys.readouterr().out.splitlines()[-1].split("\t")[2])
        assert gap <= 1e-12

    @pytest.mark.parametrize("builtin,first", [
        ("distinct_partitions", 1),
        # the recursion runs above the split index s = 25 alone
        ("distinct_odd_partitions", 26),
    ])
    def test_selection_prob_t_runs_one_auto_route(self, builtin, first,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        # both columns read the one cached full-set pmf of the auto route
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "selection", "builtin": builtin}))
        n = st.EXACT_CUTOFF + 488
        calls = []
        for name in ("recursion", "convolution"):
            orig = getattr(sd, f"_pmf_by_{name}")

            def spy(spec, B, n_max, params, *a, _name=name, _orig=orig, **k):
                calls.append((_name, n_max, B[0]))
                return _orig(spec, B, n_max, params, *a, **k)
            monkeypatch.setattr(sd, f"_pmf_by_{name}", spy)
        assert cli.run(["prob-t", "--spec", str(path), "--n", str(n),
                        "--choose-x", "exact_mean"]) == 0
        assert calls == [("recursion", n, first)]
        gap = float(capsys.readouterr().out.splitlines()[-1].split("\t")[2])
        assert gap <= 1e-12

    @pytest.mark.parametrize("doc", [
        {"kind": "assembly", "builtin": "set_partitions"},
        {"kind": "selection", "builtin": "distinct_partitions"},
        {"kind": "selection", "builtin": "squarefree_polynomials",
         "params": {"q": 2}},
    ], ids=lambda d: d["builtin"])
    def test_prob_t_computes_one_seed(self, doc, tmp_path, monkeypatch,
                                      capsys):
        # the seed log_seed(1..n) is kept beside the full-set triple, where
        # the closed-form column and the p_theta table read it
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        calls = []
        orig = sd.log_seed

        def spy(spec, B, params):
            calls.append(len(sd.index_set(B)))
            return orig(spec, B, params)
        monkeypatch.setattr(sd, "log_seed", spy)
        assert cli.run(["prob-t", "--spec", str(path), "--n", "2000",
                        "--choose-x", "exact_mean"]) == 0
        assert calls == [2000]
        gap = float(capsys.readouterr().out.splitlines()[-1].split("\t")[2])
        assert gap <= 1e-12

    @pytest.mark.parametrize("builtin", ["set_partitions",
                                         "distinct_partitions"])
    def test_closed_form_alone_runs_no_recursion(self, builtin, monkeypatch):
        # on the exact route the closed form needs only the seed: with the
        # full-set slot empty it runs one log_seed and no recursion
        spec = getattr(st, builtin)()
        calls = self._spy(monkeypatch)
        seeds = []
        orig = sd.log_seed

        def spy(spec, B, params):
            seeds.append(len(sd.index_set(B)))
            return orig(spec, B, params)
        monkeypatch.setattr(sd, "log_seed", spy)
        params = TiltedParams(0.5, 1)
        p = sd.prob_T_eq_n(spec, 300, params, method="closed_form")
        assert calls == [] and seeds == [300]
        assert "full_set" not in spec._table_cache
        assert p == pytest.approx(sd.prob_T_eq_n(spec, 300, params),
                                  rel=1e-12)

    def test_one_slot_and_read_only(self, monkeypatch):
        spec = st.set_partitions()
        calls = self._spy(monkeypatch)
        p1, p2 = TiltedParams(2.0, 1), TiltedParams(3.0, 1)
        a = sd._float_log_table(spec, 700, 1, 2.0)
        sd.prob_T_eq_n(spec, 700, p1)
        assert calls == [700]
        sd._float_log_table(spec, 800, 1, 3.0)
        assert calls == [700, 800]
        slots = [k for k in spec._table_cache if str(k).startswith("full_set")]
        assert slots == ["full_set"]
        (q, shift, lseed), seed = spec._table_cache["full_set"]
        assert spec._table_keys["full_set"] == (800, 3.0, 1.0)
        assert lseed == seed == sd.log_seed(spec, range(1, 801), p2)
        for arr in (q, shift):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # the first (n, x) was evicted: asking for it again recomputes it,
        # to the same values
        assert np.array_equal(sd._float_log_table(spec, 700, 1, 2.0), a)
        assert calls == [700, 800, 700]

    def test_index_sets_that_are_not_full_are_not_kept(self, monkeypatch):
        spec, n, params = st.set_partitions(), 600, TiltedParams(2.0, 1)
        calls = self._spy(monkeypatch)
        for B in ((1, 3, 5), range(2, n + 1), range(1, n)):
            sd.weighted_sum_pmf(spec, B, n, params)
        assert len(calls) == 3 and "full_set" not in spec._table_cache
        # an index set that holds 1..n_max and indices past it is not the
        # full set: the slot's triple carries the seed of 1..n_max
        sd.weighted_sum_pmf(spec, range(1, 2 * n), n, params)
        assert len(calls) == 4 and "full_set" not in spec._table_cache
        sd.prob_T_eq_n(spec, n, params)
        sd.prob_T_eq_n(spec, n, params)
        assert len(calls) == 5


class TestFullSetPmfSlot:
    @pytest.mark.parametrize("builtin", ["distinct_partitions",
                                         "distinct_odd_partitions"])
    def test_index_set_past_n_max_is_not_the_full_set(self, builtin):
        # R_B with B = 1..n+5 is T_n times the zeros of Z_{n+1..n+5}, in
        # either call order: the full-set pmf slot keeps 1..n alone
        n, theta = 120, 2
        extra = range(1, n + 6)
        orders = ((extra, range(1, n + 1)), (range(1, n + 1), extra))
        for first, second in orders:
            spec = getattr(st, builtin)()
            params = TiltedParams(choose_x(spec, n, theta), theta)
            got = {}
            for B in (first, second):
                # y_1 = theta x > 1: the recursion runs above s = 7 (9)
                got[B], route = _auto_route(spec, B, n, params)
                got[B] = got[B].p
                assert route == "split"
            factor = math.exp(sd.log_seed(spec, extra, params)
                              - sd.log_seed(spec, range(1, n + 1), params))
            assert factor < 1 - 1e-6
            np.testing.assert_allclose(got[extra],
                                       factor * got[range(1, n + 1)],
                                       rtol=1e-12, atol=0)


class _FillCounter(dict):
    """A spec._table_cache that counts the writes to each key: every
    per-request table is written once per fill."""

    def __init__(self):
        super().__init__()
        self.writes = {}

    def __setitem__(self, key, value):
        self.writes[key] = self.writes.get(key, 0) + 1
        super().__setitem__(key, value)


class TestOneFillPerRequest:
    @pytest.mark.parametrize("doc", [
        {"kind": "assembly", "builtin": "set_partitions"},
        {"kind": "assembly", "builtin": "permutations"},
        {"kind": "multiset", "builtin": "integer_partitions"},
        {"kind": "multiset", "builtin": "polynomials", "params": {"q": 2}},
        {"kind": "selection", "builtin": "distinct_partitions"},
        {"kind": "selection", "builtin": "squarefree_polynomials",
         "params": {"q": 2}},
        {"kind": "multiset", "m": [1, 2, 0, 3, 1]},
    ], ids=lambda d: d.get("builtin", "m_list"))
    def test_prob_t_fills_each_table_once(self, doc, tmp_path, monkeypatch):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        specs = []
        load = st.load_spec

        def spy(p):
            spec = load(p)
            spec._table_cache = _FillCounter()
            specs.append(spec)
            return spec

        monkeypatch.setattr(st, "load_spec", spy)
        n = st.EXACT_CUTOFF + 488
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["prob-t", "--spec", str(path), "--n", str(n)]) == 0
        writes = specs[0]._table_cache.writes
        assert writes.get("log_m") == 1
        assert writes.get("log_p_zero") == 1
        for key in ("log_factorial", "log_m", "log_p_zero"):
            assert writes.get(key, 0) <= 1, (key, writes)


class TestIndexSets:
    def test_index_set_is_returned_unchanged(self):
        B = sd.index_set([5, 3, 3, 9])
        assert isinstance(B, sd.IndexSet) and B == (3, 5, 9)
        assert sd.index_set(B) is B

    def test_unit_step_range(self):
        B = sd.index_set(range(1, 2001))
        assert isinstance(B, sd.IndexSet) and B == tuple(range(1, 2001))
        assert sd.index_set(range(7, 3)) == ()
        with pytest.raises(ParameterDomainError):
            sd.index_set(range(0, 5))

    def test_other_ranges_take_the_general_path(self):
        assert sd.index_set(range(1, 10, 2)) == (1, 3, 5, 7, 9)
        assert sd.index_set(range(9, 0, -2)) == (1, 3, 5, 7, 9)
        with pytest.raises(ParameterDomainError):
            sd.index_set(range(4, -1, -2))

    @pytest.mark.parametrize("B", [(), (1,), (2, 5, 9), (3, 40, 50),
                                   tuple(range(1, 31))])
    def test_complement(self, B):
        n = 30
        got = sd.complement(B, n)
        assert isinstance(got, sd.IndexSet)
        assert got == tuple(i for i in range(1, n + 1) if i not in B)
        assert all(type(i) is int for i in got)
        arr = sd._index_array(got)  # the array complement found it in
        assert arr.dtype == np.int64 and arr.tolist() == list(got)
        assert not arr.flags.writeable and sd._index_array(got) is arr
        with pytest.raises(ValueError):
            arr[:1] = 7

    def test_index_array_is_made_once(self):
        for B in (sd.index_set([9, 2, 5]), sd.index_set(range(1, 50))):
            arr = sd._index_array(B)
            assert arr.tolist() == list(B) and not arr.flags.writeable
            assert sd._index_array(B) is arr
        # a plain tuple is converted on each call and keeps nothing
        assert sd._index_array((2, 5)).tolist() == [2, 5]

    @staticmethod
    def _sets():
        return (sd.index_set([9, 2, 5, 2]), sd.index_set(range(1, 50)),
                sd.index_set(range(3, 100, 7)), sd.complement((1, 4, 6), 40),
                sd.index_set(np.array([8, 3, 3, 1])), sd.index_set([]))

    def test_array_is_the_only_store(self):
        for B in self._sets():
            assert type(B).__slots__ == ("_array",)
            assert not hasattr(B, "__dict__")
            assert B._array.dtype == np.int64 and not B._array.flags.writeable
            assert sd._index_array(B) is B._array
            if B:
                with pytest.raises(ValueError):
                    B._array[0] = 1

    def test_items_and_iteration_are_python_ints(self):
        # iteration reads the array in chunks of _CHUNK: this set spans three
        B = sd.index_set(range(1, 2 * sd._CHUNK + 10))
        for C in (*self._sets(), B):
            assert all(type(i) is int for i in C)
            if C:
                assert type(C[0]) is int and type(C[-1]) is int
                assert C[-1] == max(C) and C[0] == min(C)
        assert list(B) == list(range(1, 2 * sd._CHUNK + 10))

    def test_slices_view_the_same_array(self):
        B = sd.index_set(range(10, 60, 3))
        for part in (B[2:7], B[5:], B[:3], B[::2], B[4:4]):
            assert isinstance(part, sd.IndexSet)
            assert np.shares_memory(part._array, B._array) or not part
            assert not part._array.flags.writeable
        assert B[2:7] == tuple(range(10, 60, 3))[2:7]
        with pytest.raises(ValueError):
            B[::-1]

    def test_equals_the_tuple_of_its_indices(self):
        B = sd.index_set([7, 1, 4])
        assert B == (1, 4, 7) and (1, 4, 7) == B
        assert B != (1, 4) and B != (1, 4, 8) and B != (7, 4, 1)
        assert B == sd.index_set(range(1, 8, 3))
        assert hash(B) == hash((1, 4, 7))
        assert sd.index_set([]) == () and not sd.index_set([])
        assert B != [1, 4, 7]  # a tuple, as before, not a list

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(idx=hs.lists(hs.integers(1, 200), max_size=80),
           n=hs.integers(1, 200), cut=hs.integers(-1, 201),
           a=hs.integers(-90, 90) | hs.none(),
           b=hs.integers(-90, 90) | hs.none(), step=hs.integers(1, 4))
    def test_against_a_tuple_model(self, idx, n, cut, a, b, step):
        # unsorted, repeated and past-n indices, against the sorted tuple of
        # distinct indices that an IndexSet stood for
        model = tuple(sorted(set(idx)))
        for B in (sd.index_set(idx), sd.index_set(np.array(idx, dtype=int))):
            assert B == model and len(B) == len(model)
            assert bool(B) is bool(model)
            assert sd._index_array(B).tolist() == list(model)
            assert sd.index_set(B) is B
            if model:
                assert (B[0], B[-1]) == (model[0], model[-1])
            assert B[a:b:step] == model[a:b:step]
            assert sd._upto(B, cut) == bisect.bisect_right(model, cut)
            arr = sd._index_array(B)
            assert (int(np.searchsorted(arr, cut, side="left"))
                    == bisect.bisect_left(model, cut))
            comp = sd.complement(B, n)
            want = tuple(i for i in range(1, n + 1) if i not in model)
            assert comp == want and len(comp) == len(want)
            assert bool(comp) is bool(want)
            assert sd._index_array(comp).tolist() == list(want)
            assert sd.complement(idx, n) == comp


class TestConvolutionFirst:
    @staticmethod
    def _recursions(monkeypatch):
        calls = []
        orig = sd._recursion_coeffs

        def spy(g, n_max):
            calls.append(n_max)
            return orig(g, n_max)

        monkeypatch.setattr(sd, "_recursion_coeffs", spy)
        return calls

    @pytest.mark.parametrize("spec", [st.distinct_partitions(),
                                      st.distinct_odd_partitions(),
                                      st.squarefree_polynomials(2),
                                      CUSTOM_SELECTION],
                             ids=lambda s: s.name)
    def test_small_index_sets_skip_the_recursion(self, spec, monkeypatch):
        # sum_{i in B} n (1 + min(m_i, n // i)) <= 217 n for 5 indices of
        # 1..10, against about n band / 2 for the recursion
        n = 1000
        params = TiltedParams(choose_x(spec, n), 1)
        calls = self._recursions(monkeypatch)
        for B in ((1, 3, 5, 7, 9), (6, 7, 8, 9, 10)):
            got = sd.weighted_sum_pmf(spec, B, n, params)
            conv = sd.weighted_sum_pmf(spec, B, n, params, "convolution")
            assert np.array_equal(got.p, conv.p)
        assert calls == []

    @pytest.mark.parametrize("spec,route", [
        (st.distinct_partitions(), "recursion"),
        # n / 2 strided updates of 2 n multiply-adds each, against
        # n (n + 1) / 2 for the recursion, which cancels by 2^24 on all of
        # B: the recursion runs above s = 25 and the convolution below
        (st.distinct_odd_partitions(), "split"),
    ], ids=lambda v: getattr(v, "name", v))
    def test_complements_and_full_sets_keep_the_recursion(self, spec, route,
                                                          monkeypatch):
        # n - 5 strided updates of length n against n (n + 1) / 2
        # multiply-adds: the recursion is tried and certified
        n = 1000
        params = TiltedParams(choose_x(spec, n), 1)
        calls = self._recursions(monkeypatch)
        for B in (sd.complement((1, 3, 5, 7, 9), n), range(1, n + 1)):
            assert _auto_route(spec, B, n, params)[1] == route
        assert calls


class TestMultisetRoutesAgree:
    # big m_i: polynomials(2) has m_54 = 333599969907456; the convolution
    # reads the negative-binomial pmfs, the recursion does not
    @pytest.mark.parametrize("spec", [st.integer_partitions(),
                                      st.polynomials(2), st.polynomials(3),
                                      st.necklaces(2), st.necklaces(3)],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_convolution_matches_recursion(self, spec, n):
        params = TiltedParams(choose_x(spec, n), 1)
        conv = sd.weighted_sum_pmf(spec, range(1, n + 1), n, params,
                                   method="convolution")
        rec = sd.weighted_sum_pmf(spec, range(1, n + 1), n, params)
        assert _close(conv.p, rec.p, 1e-11)
        assert conv.p[n] == pytest.approx(rec.p[n], rel=1e-10)
        if n <= 256:  # the exact closed form up to the exact cutoff
            want = sd.prob_T_eq_n(spec, n, TiltedParams(params.x, 1),
                                  method="closed_form")
            assert rec.p[n] == pytest.approx(want, rel=1e-10)


class TestConvolutionChecksRecursionAboveCutoff:
    # above the exact cutoff the full-set convolution is an independent
    # reference: it reads the kernel's row of every index, the recursion
    # none of them (it reads g and the seed)
    @pytest.mark.parametrize("spec", [st.set_partitions(),
                                      st.integer_partitions(),
                                      st.polynomials(2), st.permutations()],
                             ids=lambda s: s.name)
    def test_full_set_at_4000(self, spec):
        self._assert_agree(spec, 4000, 1e-12)

    @pytest.mark.parametrize("spec", [st.integer_partitions(),
                                      st.set_partitions()],
                             ids=lambda s: s.name)
    def test_full_set_at_16000(self, spec):
        self._assert_agree(spec, 16000, 1e-11)

    @staticmethod
    def _assert_agree(spec, n, tol):
        """Relative to tol on every entry either pmf puts at or above
        1e-300, entry n among them."""
        params = TiltedParams(choose_x(spec, n), 1)
        conv = sd.weighted_sum_pmf(spec, range(1, n + 1), n, params,
                                   method="convolution").p
        rec = sd.weighted_sum_pmf(spec, range(1, n + 1), n, params).p
        read = (conv >= 1e-300) | (rec >= 1e-300)
        assert read[n] and np.all(np.abs(conv - rec)[read]
                                  <= tol * np.maximum(conv, rec)[read])

    def test_five_index_r_b_at_16000(self):
        # set partitions, B = {1, 3, 5, 7, 9}: a band of 9, against the
        # convolution of the five Poisson laws, max-normwise
        spec, n = st.set_partitions(), 16000
        params = TiltedParams(choose_x(spec, n), 1)
        rec = sd.weighted_sum_pmf(spec, (1, 3, 5, 7, 9), n, params).p
        conv = sd.weighted_sum_pmf(spec, (1, 3, 5, 7, 9), n, params,
                                   method="convolution").p
        assert np.max(np.abs(rec - conv)) <= 1e-10 * np.max(conv)


def _auto_route(spec, B, n, params):
    """(auto pmf, its route): "recursion" (the signed or positive recursion
    on all of B, s = 0), "split" (the recursion above s > 0 joined with the
    convolution up to s) or "convolution" (over all of B), by spies on the
    convolution the auto route falls back to and on the index set the
    recursion runs on."""
    firsts = []
    orig = sd._pmf_by_recursion

    def spy(spec_, B_, *args, **kwargs):
        firsts.append(B_[0])
        return orig(spec_, B_, *args, **kwargs)
    with mock.patch.object(sd, "_pmf_by_convolution",
                           wraps=sd._pmf_by_convolution) as conv, \
            mock.patch.object(sd, "_pmf_by_recursion", spy):
        pv = sd.weighted_sum_pmf(spec, B, n, params)
    if conv.called:
        return pv, "convolution"
    return pv, ("recursion" if firsts == [sd.index_set(B)[0]] else "split")


def _agree(got, want, n, tol=1e-11):
    """Max-normwise and relative at n."""
    assert float(np.max(np.abs(got.p - want.p))) <= tol * float(np.max(want.p))
    assert abs(got.p[n] - want.p[n]) <= tol * want.p[n]


def _per_entry(got, conv, reach, tol=1e-12):
    """Every entry of got within tol of the convolution's, relative, where
    that is a normal double; exactly 0 at the weights R_B cannot reach."""
    assert not np.any(got[~reach]) and not np.any(conv[~reach])
    normal = conv >= sys.float_info.min
    assert np.all(np.abs(got - conv)[normal] <= tol * conv[normal])
    assert not np.any(got[~normal] >= sys.float_info.min)


def _seeded_selection(seed, name):
    """70 entries from 1..3, as the benchmark's custom selections."""
    rng = random.Random(seed)
    return st.from_m_list("selection", [rng.randint(1, 3) for _ in range(70)],
                          name=name)


SELECTION_SPECS = [st.distinct_partitions(), st.distinct_odd_partitions(),
                   st.squarefree_polynomials(2), st.squarefree_polynomials(3),
                   CUSTOM_SELECTION, _seeded_selection(7, "sel_1_3")]


def _distinct_part_counts(n):
    q = [1] + [0] * n
    for i in range(1, n + 1):
        for k in range(n, i - 1, -1):
            q[k] += q[k - i]
    return q


def _mpmath_pmf(spec, counts, n, x):
    """P(T_n = k) = x^k c_k / prod_i (1 + x^i)^{m_i}, k <= n, at theta = 1,
    in 40-digit arithmetic from the exact counts c_k."""
    with mpmath.workdps(40):
        mx = mpmath.mpf(x)
        lseed = -mpmath.fsum(spec.m(i) * mpmath.log1p(mx ** i)
                             for i in range(1, n + 1))
        return np.array([float(mpmath.exp(lseed + k * mpmath.log(mx)) * c)
                         for k, c in enumerate(counts)])


class TestCertifiedSelectionRoute:
    def test_every_selection_builtin_covered(self):
        names = {sp.params.get("builtin") for sp in SELECTION_SPECS}
        covered = {sp.params.get("builtin") for sp in REFERENCE_SPECS
                   if sp.kind is st.Kind.SELECTION}
        assert covered - {None} <= names

    @pytest.mark.parametrize("n", [97, 1000, 2000])
    @pytest.mark.parametrize("spec", SELECTION_SPECS, ids=lambda s: s.name)
    def test_kept_recursion_matches_convolution(self, spec, n):
        params = TiltedParams(choose_x(spec, n), 1)
        B = sorted(random.Random(n).sample(range(1, 11), 5))
        for BB in (range(1, n + 1), B, sd.complement(B, n)):
            got, route = _auto_route(spec, BB, n, params)
            conv = sd.weighted_sum_pmf(spec, BB, n, params, "convolution")
            if route != "convolution":
                _agree(got, conv, n)
                assert np.array_equal(got.p == 0, conv.p == 0)
            else:
                assert np.array_equal(got.p, conv.p) and got.tail == conv.tail
        # from n = 1000 on the 5-index B costs fewer multiply-adds on the
        # convolution, and distinct odd partitions split
        if n >= 1000:
            assert _auto_route(spec, B, n, params)[1] == "convolution"
        if spec.name == "distinct_odd_partitions" and n >= 1000:
            for BB in (range(1, n + 1), sd.complement(B, n)):
                assert _auto_route(spec, BB, n, params)[1] == "split"

    @pytest.mark.parametrize("spec", [st.distinct_partitions(),
                                      st.squarefree_polynomials(2)],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [97, 1000, 2000])
    def test_full_set_takes_the_positive_recursion(self, spec, n):
        # prod (1 + y^i) = prod 1/(1 - y^(2i-1)), and likewise for
        # square-free polynomials: g >= 0 on the full index set
        params = TiltedParams(choose_x(spec, n), 1)
        g = sd._g_array(spec, tuple(range(1, n + 1)), n, params)
        assert np.all(g >= 0)
        assert _auto_route(spec, range(1, n + 1), n, params)[1] == "recursion"

    @pytest.mark.parametrize("theta", [1, Fraction(1, 2)], ids=str)
    @pytest.mark.parametrize("spec", SELECTION_SPECS, ids=lambda s: s.name)
    def test_kept_recursion_matches_exact_table(self, spec, theta):
        for n in (64, 256, 512):
            params = TiltedParams(choose_x(spec, n, theta), theta)
            _, route = _auto_route(spec, range(1, n + 1), n, params)
            if route == "convolution":
                continue
            got = sd.prob_T_eq_n(spec, n, params)
            want = sd.prob_T_eq_n(spec, n, params, method="closed_form")
            assert got == pytest.approx(want, rel=1e-10), n

    @pytest.mark.parametrize("spec,counts", [
        (st.distinct_partitions(), _distinct_part_counts),
        # square-free polynomials over F_2: 1, 2, then 2^k - 2^(k-1)
        (st.squarefree_polynomials(2),
         lambda n: [1, 2] + [2 ** k - 2 ** (k - 1) for k in range(2, n + 1)]),
    ], ids=["distinct_partitions", "squarefree_polynomials(2)"])
    def test_recursion_at_least_as_accurate_as_convolution(self, spec, counts):
        n = 2000
        x = choose_x(spec, n)
        params = TiltedParams(x, 1)
        ref = _mpmath_pmf(spec, counts(n), n, x)
        rec, route = _auto_route(spec, range(1, n + 1), n, params)
        conv = sd.weighted_sum_pmf(spec, range(1, n + 1), n, params,
                                   "convolution")
        assert route == "recursion"
        err = [float(np.max(np.abs(v.p - ref))) / float(np.max(ref))
               for v in (rec, conv)]
        assert err[0] <= err[1] <= 1e-13
        for v in (rec, conv):
            assert v.p[n] == pytest.approx(ref[n], rel=1e-14)

    @pytest.mark.parametrize("spec,n,low,route", [
        (st.distinct_odd_partitions(), 2000, 30, "split"),
        # 11.1 bits, just above the limit; its 70 active indices cost
        # fewer multiply-adds on the convolution than the split
        (_seeded_selection(3, "sel_gap_11"), 1000, sd._CANCEL_BITS,
         "convolution"),
    ], ids=["distinct_odd_partitions", "sel_gap_11"])
    def test_cancelling_recursion_is_split(self, spec, n, low, route):
        # the recursion on all of B would be refused; above the split index
        # it is certified, and the convolution runs on the indices up to it
        params = TiltedParams(choose_x(spec, n), 1)
        B = sd.index_set(range(1, n + 1))
        g = sd._g_array(spec, B, n, params)
        q, shift = sd._recursion_coeffs(g, n)
        reach = lambda top: sd._reach(spec, B, top)  # noqa: E731
        assert low < sd._cancellation_bits(g, q, shift, n, reach)[0] < low + 5
        ks, lm = sd._active_indices(spec, B, n)
        s = sd._split_index(ks, lm, g, params)
        assert 0 < s < n // 10
        high = sd.index_set(range(s + 1, n + 1))
        gh = sd._g_array(spec, high, n, params)
        qh, shh = sd._recursion_coeffs(gh, n)
        bits = sd._cancellation_bits(gh, qh, shh, n,
                                     lambda top: sd._reach(spec, high, top))[0]
        assert bits <= sd._SPLIT_BITS + 1
        got, took = _auto_route(spec, B, n, params)
        conv = sd.weighted_sum_pmf(spec, B, n, params, "convolution")
        assert took == route
        if route == "split":
            _per_entry(got.p, conv.p, sd._reach(spec, B, n))
        else:
            assert np.array_equal(got.p, conv.p) and got.tail == conv.tail

    def test_overflowing_weights_fall_back(self):
        # at x = 1e6 the weights g(i) pass double range; the convolution
        # still runs, and P(T_n = n) underflows to a numeric guard
        spec, n = st.distinct_partitions(), 60
        params = TiltedParams(1e6, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericGuardError):
                sd._g_array(spec, tuple(range(1, n + 1)), n, params)
            got, route = _auto_route(spec, range(1, n + 1), n, params)
            assert route == "convolution" and got.p[n] == 0.0
            with pytest.raises(NumericGuardError, match="underflowed"):
                sd.prob_T_eq_n(spec, n, params)

    def test_deterministic(self):
        spec, n = st.squarefree_polynomials(2), 1000
        params = TiltedParams(choose_x(spec, n), 1)
        a = sd.weighted_sum_pmf(spec, range(1, n + 1), n, params)
        b = sd.weighted_sum_pmf(spec, range(1, n + 1), n, params)
        assert np.array_equal(a.p, b.p) and a.tail == b.tail

    @settings(max_examples=40, deadline=None)
    @given(m=hs.lists(hs.integers(min_value=0, max_value=5), min_size=1,
                      max_size=40),
           x=hs.floats(min_value=0.05, max_value=3.0),
           n=hs.integers(min_value=1, max_value=120),
           B=hs.sets(hs.integers(min_value=1, max_value=120), min_size=1,
                     max_size=30))
    # the whole pmf of T_25 is below the smallest normal double
    @example(m=[0] * 12 + [1] * 8 + [4] + [5] * 4, x=3.0, n=25, B={1})
    def test_random_m_lists(self, m, x, n, B):
        spec = st.from_m_list("selection", m, name="sel_property")
        params = TiltedParams(x, 1)
        for BB in (B, range(1, n + 1)):
            got, route = _auto_route(spec, BB, n, params)
            conv = sd.weighted_sum_pmf(spec, BB, n, params, "convolution")
            if route != "convolution":
                _agree(got, conv, n)
                assert np.array_equal(got.p == 0, conv.p == 0)
            else:
                assert np.array_equal(got.p, conv.p)


class TestConvolutionReadsActiveIndices:
    """The convolution reads only the indices with m_i != 0 (and those past
    n_max, which scale it by P(Z_i = 0)): the same bits as the prefix pmfs
    of every index, which the sampler's table keeps."""

    @staticmethod
    def _all_indices(spec, B, n, params):
        """One strided update per index of B, rows to n // i: the
        convolution as it read every index."""
        p = np.eye(1, n + 1)[0]
        idx = np.asarray(B, dtype=np.int64)
        for i, pk in zip(B, z_pmf_rows(spec, idx, n // idx, params)):
            nonzero = pk.nonzero()[0]
            pk = pk[: nonzero[-1] + 1 if nonzero.size else 1]
            if len(pk) > 1 or pk[0] != 1.0:
                new = pk[0] * p
                for k in range(1, len(pk)):
                    new[i * k:] += pk[k] * p[: n + 1 - i * k]
                p = new
        return p

    @pytest.mark.parametrize("spec,n,B", [
        (st.distinct_odd_partitions(), 2000, range(1, 2001)),
        (st.distinct_odd_partitions(), 1000, sd.complement((1, 3, 5, 7, 9),
                                                           1000)),
        (CUSTOM_SELECTION, 1000, range(1, 1001)),
        (CUSTOM_SELECTION, 300, (2, 5, 6, 9, 40, 77, 299)),
        # past n_max: indices with m_i != 0 scale p, the others do not
        (CUSTOM_SELECTION, 150, range(1, 300)),
        (st.distinct_partitions(), 200, range(1, 260)),
    ], ids=["distinct_odd-2000", "distinct_odd-complement", "custom-full",
            "custom-gapped", "custom-past-n_max", "distinct-past-n_max"])
    def test_bits_equal_every_index(self, spec, n, B):
        params = TiltedParams(choose_x(spec, n), 1)
        B = sd.index_set(B)
        p, shift, lseed = sd._pmf_by_convolution(spec, B, n, params)
        assert shift == 0 and lseed == 0.0
        assert p.tobytes() == self._all_indices(spec, B, n, params).tobytes()

    def test_prefix_pmfs_yields_every_index(self):
        spec, n = CUSTOM_SELECTION, 120
        params = TiltedParams(choose_x(spec, n), 1)
        B = range(1, n + 1)
        got = list(sd.prefix_pmfs(spec, B, n, params))
        assert [i for i, _pk, _p in got] == list(B)
        assert got[-1][2].tobytes() == self._all_indices(spec, B, n,
                                                         params).tobytes()


def _reach_loop(spec, n):
    """The weights some structure of 0..n has, one boolean strided update
    per index that is not a multiple of an unbounded one: the reference of
    the bitset _reach."""
    lm = log_m_array(spec, n)
    idle = lm == -np.inf
    reach = np.zeros(n + 1, dtype=bool)
    reach[0] = True
    for i in range(1, n + 1):
        if idle[i]:
            continue
        if spec.kind is st.Kind.SELECTION and lm[i] < math.log(n // i):
            new = reach.copy()
            for k in range(1, min(n // i, int(spec.m(i))) + 1):
                new[i * k:] |= reach[: n + 1 - i * k]
            reach = new
        else:
            rows = -(-(n + 1) // i)
            grid = np.zeros(rows * i, dtype=bool)
            grid[: n + 1] = reach
            reach = np.logical_or.accumulate(grid.reshape(rows, i),
                                             axis=0).ravel()[: n + 1]
            idle[i::i] = True
    return reach


def _m_list_specs():
    rng = random.Random(34)
    out = []
    for kind in ("selection", "multiset", "assembly"):
        for t in range(3):
            m = [rng.choice([0, 0, 0, 1, 2, 5]) for _ in range(rng.randint(5, 300))]
            out.append(st.from_m_list(kind, m, name=f"{kind}_{t}"))
    return out


class TestReachBitset:
    @pytest.mark.parametrize("spec", [
        st.permutations(), st.set_partitions(), st.mappings(),
        st.two_regular_graphs(), st.integer_partitions(), st.polynomials(2),
        st.necklaces(2), st.distinct_partitions(),
        st.distinct_odd_partitions(), st.squarefree_polynomials(2),
        st.squarefree_polynomials(3), EVEN_ONLY,
    ] + _m_list_specs(), ids=lambda s: s.name)
    def test_matches_the_boolean_loop(self, spec):
        for n in (1, 7, 60, 600, 4000):
            got = sd._reach(spec, range(1, n + 1), n)
            assert got.dtype == bool
            assert np.array_equal(got, _reach_loop(spec, n)), n

    @pytest.mark.parametrize("spec,B", [
        (st.distinct_odd_partitions(), range(48, 400)),
        (st.distinct_partitions(), (1, 3, 4, 5, 7)),
        (st.squarefree_polynomials(2), (5, 6, 7, 8, 10)),
        (CUSTOM_SELECTION, range(30, 300)),
        (EVEN_ONLY, (2, 3, 4)),
    ], ids=lambda v: getattr(v, "name", None))
    def test_index_set_is_the_support_of_its_law(self, spec, B):
        # at x = 0.5 no entry of 0..n underflows: the exact support
        n = 300
        params = TiltedParams(0.5, 1)
        conv = sd._pmf_by_convolution(spec, sd.index_set(B), n, params)[0]
        assert np.array_equal(sd._reach(spec, B, n), conv > 0)

    def test_far_tilt_spec_at_16000(self):
        # m_i = 1 at i = 2p: 1,007 bounded indices, none unbounded
        n = 16000
        sieve = np.ones(n // 2 + 1, dtype=bool)
        sieve[:2] = False
        for d in range(2, math.isqrt(n // 2) + 1):
            sieve[d * d::d] &= d == np.arange(d * d, n // 2 + 1, d)
        m = [0] * n
        for p in np.flatnonzero(sieve).tolist():
            m[2 * p - 1] = 1
        assert sum(m) == 1007
        spec = st.from_m_list("selection", m, name="twice_primes")
        reach = sd._reach(spec, range(1, n + 1), n)
        assert not reach[1::2].any() and reach[4] and reach[6] and not reach[2]
        assert np.array_equal(reach[:2001], _reach_loop(spec, 2000))


SPLIT_SPECS = [st.distinct_odd_partitions(), st.distinct_partitions(),
               st.squarefree_polynomials(2), CUSTOM_SELECTION,
               _seeded_selection(7, "sel_1_3")]


class TestSplitRoute:
    @pytest.mark.parametrize("n", [97, 600, 1000, 2000, 4000])
    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 2], ids=str)
    @pytest.mark.parametrize("spec", SPLIT_SPECS, ids=lambda s: s.name)
    def test_per_entry_against_the_convolution(self, spec, theta, n):
        # every normal entry within 1e-12 of the convolution, relative, and
        # exactly 0 where R_B takes no value; where g >= 0 the route is the
        # positive recursion of the parent, bit for bit (its certified tail
        # models hold g within 1e-12, not each entry)
        params = TiltedParams(choose_x(spec, n, theta), theta)
        B = sd.index_set(range(1, n + 1))
        got, route = _auto_route(spec, B, n, params)
        try:
            g = sd._g_array(spec, B, n, params)
        except NumericGuardError:
            g = None  # a weight beyond double range: the convolution
        if g is not None and np.all(g >= 0):
            assert route == "recursion"
            want = sd._assemble(*sd._pmf_by_recursion(spec, B, n, params))
            assert got.p.tobytes() == want.p.tobytes()
            return
        conv = sd.weighted_sum_pmf(spec, B, n, params, "convolution").p
        if route == "convolution":
            assert got.p.tobytes() == conv.tobytes()
        else:
            _per_entry(got.p, conv, sd._reach(spec, B, n))

    @pytest.mark.parametrize("spec", [st.distinct_partitions(),
                                      st.squarefree_polynomials(2),
                                      st.squarefree_polynomials(3)],
                             ids=lambda s: s.name)
    def test_nonnegative_g_takes_no_split(self, spec):
        seen = 0
        for n in (97, 600, 2000):
            for theta in (Fraction(1, 2), 1, 2):
                params = TiltedParams(choose_x(spec, n, theta), theta)
                for B in (range(1, n + 1), sd.complement((1, 3, 5, 7, 9), n),
                          range(40, n + 1)):
                    B = sd.index_set(B)
                    try:
                        g = sd._g_array(spec, B, n, params)
                    except NumericGuardError:
                        continue
                    if np.any(g < 0):
                        continue
                    seen += 1
                    ks, lm = sd._active_indices(spec, B, n)
                    assert sd._split_index(ks, lm, g, params) == 0
        assert seen

    def test_dust_where_no_structure_exists(self):
        # the split part above s reaches no weight 1..s; its dust there,
        # joined with the convolution, would read where no structure is
        spec, n = st.distinct_odd_partitions(), 600
        table = st.log_ptheta_table(spec, n, Fraction(1, 2))
        exact = st.ptheta_table(spec, n, Fraction(1, 2))
        assert table[2] == -math.inf
        assert all((t == -math.inf) == (e == 0) for t, e in zip(table, exact))

    def test_join_across_exponents(self):
        # a recursion rescaled by 2^512 keeps entries at two exponents; the
        # join adds the parts at the larger one, as the linear sum would
        spec, n = CUSTOM_SELECTION, 200
        params = TiltedParams(choose_x(spec, n), 1)
        ks = np.array([1, 2, 3, 5], dtype=np.int64)
        rng = np.random.default_rng(3)
        v = rng.uniform(0.5, 1.0, n + 1)
        shift = np.where(np.arange(n + 1) < 80, 0, 3)
        w, e = sd._join(spec, ks, n, params, v, shift)
        for _i, _pk, want in sd._prefix(spec, ks, n, params, np.ldexp(v, shift)):
            pass
        assert set(e.tolist()) <= {0, 3}
        np.testing.assert_allclose(np.ldexp(w, e), want, rtol=1e-15, atol=0)
        one = sd._join(spec, ks, n, params, v, np.zeros(n + 1, dtype=np.int64))
        for _i, _pk, lin in sd._prefix(spec, ks, n, params, v):
            pass
        assert one[0].tobytes() == lin.tobytes() and not one[1].any()


class TestOverflowingTilt:
    @pytest.mark.parametrize("spec,n,x", [
        (st.permutations(), 60, 1e6),
        (st.polynomials(2), 2000, 0.99),
        (st.distinct_partitions(), 60, 1e6),
    ], ids=["assembly", "multiset", "selection"])
    def test_recursion_raises_numeric_guard(self, spec, n, x):
        params = TiltedParams(x, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericGuardError):
                _recursion_pmf(spec, range(1, n + 1), n, params)
            with pytest.raises(NumericGuardError):
                sd._float_log_table(spec, n, params.theta, params.x)
            with pytest.raises(NumericGuardError):
                sd.prob_T_eq_n(spec, n, params)

    def test_seed_raises_numeric_guard(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericGuardError):
                sd.log_seed(st.permutations(), range(1, 61), TiltedParams(1e6, 1))

    def test_summed_weight_overflow_is_guarded(self):
        # each term of g(i) fits a double, their sum does not
        spec = st.from_m_list("multiset", [10 ** 308, 5 * 10 ** 307],
                              name="huge_m")
        params = TiltedParams(0.99, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(sd._g_array(spec, (1, 2), 1, params)))
            with pytest.raises(NumericGuardError):
                sd._g_array(spec, (1, 2), 2, params)




class TestZeroConditioningProbability:
    @pytest.mark.parametrize("n", [60, 1000])
    def test_underflow_is_numeric_guard(self, n):
        # at x = 1e6 every Z_i is 1 almost surely, so T_n = n(n+1)/2 >> n
        params = TiltedParams(1e6, 1)
        for method in ("recursion", "closed_form"):
            with pytest.raises(NumericGuardError):
                sd.prob_T_eq_n(DISTINCT, n, params, method=method)

    def test_subnormal_is_underflow(self):
        # P(T_n = n) of set partitions of 300 at x = 40 is about e^-(e^40):
        # every pmf entry is below the smallest normal double and reads 0
        spec, params = st.set_partitions(), TiltedParams(40, 1)
        assert not np.any(sd.weighted_sum_pmf(spec, range(1, 301), 300,
                                              params).p)
        for method in ("recursion", "closed_form"):
            with pytest.raises(NumericGuardError, match="underflowed"):
                sd.prob_T_eq_n(spec, 300, params, method)

    def test_recursion_table_is_guarded(self):
        # permutations at x = 0.1: q[k] = x^k is below the smallest normal
        # double from k = 308, where every weight is reachable; the table
        # raises as the convolution's does
        spec, params = st.permutations(), TiltedParams(0.1, 1)
        for n in (400, 600):
            with pytest.raises(NumericGuardError, match="underflowed"):
                sd._float_log_table(spec, n, params.theta, params.x)
            with pytest.raises(NumericGuardError, match="underflowed"):
                st.log_ptheta_table(spec, n, 1.0, x=0.1)
        logs = st.log_ptheta_table(spec, 300, 1.0, x=0.1)
        assert logs[300] == pytest.approx(math.lgamma(301), rel=1e-12)

    @pytest.mark.parametrize("n", [7, 1001])
    def test_true_zero_stays_zero(self, n):
        params = TiltedParams(0.5, 1)
        assert sd.prob_T_eq_n(EVEN_ONLY, n, params) == 0.0
        assert sd.prob_T_eq_n(EVEN_ONLY, n + 1, params) > 0.0
        with pytest.raises(ParameterDomainError, match="no structures of weight"):
            sd.conditioned_R_pmf(EVEN_ONLY, [1, 2], n, params)

    @pytest.mark.parametrize("spec", [
        st.two_regular_graphs(), st.distinct_partitions(),
        st.distinct_odd_partitions(), EVEN_ONLY,
        st.from_m_list("selection", [0, 0, 2, 0, 1], name="sel_gaps"),
        st.from_m_list("assembly", [0, 0, 0, 1], name="asm_fours"),
        # multiples of an index with Z_i unbounded within 0..n are skipped
        st.from_m_list("multiset", [0, 1, 0, 2, 0, 0, 1, 3, 1], name="ms_multiples"),
        st.from_m_list("selection", [0, 30, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1],
                       name="sel_multiples"),
    ], ids=lambda s: s.name)
    def test_support_update_matches_exact_table(self, spec):
        n = 60
        exact = st.ptheta_table(spec, n, 1)
        for k in range(1, n + 1):
            assert sd.has_weight(spec, k) == (exact[k] != 0), k


class TestProbT:
    def test_permutations_closed_value(self):
        p = sd.prob_T_eq_n(PERM, 3, TiltedParams(1, 1))
        assert p == pytest.approx(math.exp(-(1 + 1 / 2 + 1 / 3)), rel=1e-12)

    def test_set_partition_moser_wyman(self):
        from combstruct.indep_process import solve_xex
        n = 50
        params = TiltedParams(solve_xex(n), 1)
        p = sd.prob_T_eq_n(st.set_partitions(), n, params)
        assert abs(p / (1 / math.sqrt(2 * math.pi * n * math.log(n))) - 1) < 0.15

    @pytest.mark.parametrize("nn", [50, 200])
    def test_identity_all_builtins(self, nn):
        for spec in (st.permutations(), st.mappings(), st.set_partitions(),
                     st.two_regular_graphs(), st.esf(2),
                     st.integer_partitions(), st.polynomials(2),
                     st.distinct_partitions(), st.distinct_odd_partitions(),
                     st.squarefree_polynomials(2)):
            x1 = choose_x(spec, nn, 1)
            for x in (x1, 0.9 * x1):
                params = TiltedParams(x, 1)
                rec = sd.prob_T_eq_n(spec, nn, params, method="recursion")
                clo = sd.prob_T_eq_n(spec, nn, params, method="closed_form")
                assert abs(rec - clo) <= 1e-9 * clo, (spec.name, nn, x)

    def test_conditional_law_invariant_under_x(self):
        # Different x changes P(T_n = n) but not the conditional law
        n = 30
        for x1, x2 in ((1.0, 0.8),):
            c1 = sd.conditioned_R_pmf(PERM, [2, 5], n, TiltedParams(x1, 1))
            c2 = sd.conditioned_R_pmf(PERM, [2, 5], n, TiltedParams(x2, 1))
            assert float(np.max(np.abs(c1.p - c2.p))) < 1e-9
            p1 = sd.prob_T_eq_n(PERM, n, TiltedParams(x1, 1))
            p2 = sd.prob_T_eq_n(PERM, n, TiltedParams(x2, 1))
            assert abs(p1 - p2) > 1e-6  # the unconditioned probability does move


class TestConditionedR:
    def test_full_set_point_mass(self):
        pv = sd.conditioned_R_pmf(PERM, range(1, 8), 7, TiltedParams(1, 1))
        assert pv.p[7] == pytest.approx(1.0, abs=1e-12)

    def test_empty_set_point_mass_zero(self):
        pv = sd.conditioned_R_pmf(PERM, [], 7, TiltedParams(1, 1))
        assert pv.p[0] == pytest.approx(1.0, abs=1e-15)

    def test_against_oracle(self):
        n, B = 4, (3, 4)
        law = orc.exact_joint_law(PERM, n, 1)
        proj = orc.exact_functional_law(
            law, lambda a: 3 * a[2] + 4 * a[3])
        pv = sd.conditioned_R_pmf(PERM, B, n, TiltedParams(1, 1))
        for r in range(n + 1):
            assert pv.p[r] == pytest.approx(float(proj.prob(r)), abs=1e-12)

    def test_zero_probability_raises(self):
        spec = st.two_regular_graphs()  # no structures of weight 2
        with pytest.raises(ParameterDomainError):
            sd.conditioned_R_pmf(spec, [1], 2, TiltedParams(1, 1))


class TestPmfVectorValidation:
    def test_rejects_bad_mass(self):
        with pytest.raises(NumericGuardError):
            sd.PmfVector(p=np.array([0.5, 0.2]), tail=0.0)

    def test_clamps_dust(self):
        pv = sd.PmfVector(p=np.array([1.0, -5e-14]), tail=0.0)
        assert pv.p[1] == 0.0

    def test_rejects_negative_mass(self):
        with pytest.raises(NumericGuardError):
            sd.PmfVector(p=np.array([1.0, -1e-6]), tail=0.0)
