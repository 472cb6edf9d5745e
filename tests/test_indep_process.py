"""Per-index laws, refinement convolution identity, tilt consistency,
weighted-sum moments, and the choice-of-x solvers."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy.optimize import brentq

from combstruct import indep_process as ip
from combstruct import structures as st
from combstruct.errors import NumericGuardError, ParameterDomainError
from scalar_refs import log_factorial as _ref_log_factorial
from scalar_refs import log_falling as _ref_log_falling
from scalar_refs import log_pmf as _ref_log_pmf
from scalar_refs import log_rising as _ref_log_rising
from scalar_refs import m_softplus as _ref_m_softplus
from scalar_refs import ref_law as _ref_law
from scalar_refs import safe_mlog1p as _ref_safe_mlog1p
from combstruct.indep_process import (TiltedParams, XStrategy, choose_x,
                                      log_m_array, log_p_zero, refined_y_law,
                                      solve_xex, sum_moments, z_law,
                                      z_pmf_rows)


def _one_index(kind, m):
    """The family whose only structures are m of size 1: Z_1 at theta = 1
    is Poisson(m x), NegBin(m, x) or Binomial(m, x / (1 + x)).  A selection
    with a non-integer m (a generalised binomial, which from_m_list
    refuses) is a hand-built spec with m_1 put in its cache."""
    if kind == "selection" and not isinstance(m, int):
        spec = st.StructureSpec(st.Kind.SELECTION, "generalised_binomial",
                                lambda i: 0)
        spec._m_cache[1] = m
        return spec
    return st.from_m_list(kind, [m])


def _kernel_log_products(spec, k_max):
    """The kernel's row of log m^(k) (multiset) or log m_(k) (selection),
    k = 1..k_max, for m = m_1: -inf past the columns it computes."""
    got = ip._log_products(spec, k_max, np.array([1]),
                           log_m_array(spec, 1)[[1]])[0]
    return np.concatenate((got, np.full(k_max - len(got), -np.inf)))


class TestZLaw:
    def test_permutations_poisson(self):
        law = z_law(st.permutations(), 5, TiltedParams(1, 1))
        assert law.lam == pytest.approx(0.2, abs=1e-15)
        assert law.pmf(1) == pytest.approx(0.2 * math.exp(-0.2), rel=1e-14)

    def test_integer_partition_geometric(self):
        law = z_law(st.integer_partitions(), 1, TiltedParams(0.5, 1))
        assert law.spec.m(law.i) == 1  # geometric
        for k in range(6):
            assert law.pmf(k) == pytest.approx(2.0 ** -(k + 1), rel=1e-14)

    def test_geometric_row_is_exact(self):
        # m_1 = 1: the rising log log Gamma(1 + k) - log Gamma(1) and the
        # log k! that the row subtracts are one entry of one log k! table,
        # so the row is exactly e^(log1p(-x) + k log x); rising logs from
        # libm's lgamma against the kernel's log k! left 2.9e-11
        n = 16000
        x = math.exp(-math.pi / math.sqrt(6 * n))
        row = z_pmf_rows(st.integer_partitions(), [1], n, TiltedParams(x, 1))[0]
        want = np.exp(math.log1p(-x) + np.arange(n + 1) * math.log(x))
        big = want > 1e-300
        assert big.sum() > n // 2
        assert np.array_equal(row[big], want[big])

    def test_theta_scales_poisson_mean(self):
        spec = st.mappings()
        l1 = z_law(spec, 4, TiltedParams(0.3, 1))
        l2 = z_law(spec, 4, TiltedParams(0.3, 2))
        assert l2.lam == pytest.approx(2 * l1.lam, rel=1e-14)

    def test_multiset_needs_valid_tilt(self):
        with pytest.raises(ParameterDomainError):
            z_law(st.integer_partitions(), 1, TiltedParams(0.8, 2))

    @pytest.mark.parametrize("spec,i,params,error,match", [
        (st.permutations(), 0, TiltedParams(1, 1), ParameterDomainError,
         "index must be >= 1"),
        # a rational x below 1 whose double is 1: t = e^lw is 1 at i = 1
        (st.from_m_list("multiset", [3]), 1,
         TiltedParams(Fraction(10 ** 20 - 1, 10 ** 20), 1),
         ParameterDomainError, "reached 1"),
        (st.permutations(), 5, TiltedParams(1e300, 1), NumericGuardError,
         "Poisson mean"),
    ], ids=["i=0", "reached_1", "poisson_mean"])
    def test_domain_errors_are_the_kernels(self, spec, i, params, error, match):
        # z_law runs z_pmf_rows' checks on the one-entry row: the same type
        # and message
        with pytest.raises(error, match=match) as law_exc:
            z_law(spec, i, params)
        with pytest.raises(error) as row_exc:
            z_pmf_rows(spec, [i], 0, params)
        assert str(law_exc.value) == str(row_exc.value)

    def test_selection_binomial(self):
        law = z_law(st.from_m_list("selection", [3]), 1, TiltedParams(1, 1))
        assert law.spec.m(law.i) == 3
        assert law.pmf(0) == pytest.approx(0.125, rel=1e-14)
        assert law.pmf(3) == pytest.approx(0.125, rel=1e-14)
        assert law.pmf(4) == 0.0

    def test_pmf_mass_partial_sums(self):
        # numerically sum_k pmf <= 1 + 1e-12
        for spec, x in ((st.permutations(), 1.0),
                        (st.integer_partitions(), 0.6),
                        (st.distinct_partitions(), 1.2)):
            law = z_law(spec, 3, TiltedParams(x, 1.5))
            s = sum(law.pmf(k) for k in range(200))
            assert s <= 1 + 1e-12
            assert s > 1 - 1e-9


class TestPmfArray:
    # (kind, m_1, x, k_max): Z_1 of _one_index(kind, m_1) at x, theta = 1,
    # in every kind and every branch of the rising/falling logs
    LAWS = [
        ("assembly", lam, 1.0, k_max)  # Poisson(lam)
        for lam, k_max in ((0, 5), (0.3, 300), (200.0, 1000))
    ] + [
        ("multiset", m, math.exp(lw), 600)  # NegBin(m, e^lw)
        for m in (1, 3, 10 ** 6, 10 ** 40, Fraction(1, 3), Fraction(7, 2))
        for lw in (-30.0, -3.0, math.log(0.99))
    ] + [
        ("selection", m, math.exp(lw), 600)  # Binomial(m, expit(lw))
        for m in (1, 3, 50, 10 ** 6, 10 ** 40, Fraction(7, 2))
        for lw in (-30.0, 0.0, 3.0)
    ]

    @pytest.mark.parametrize("kind,m,x,k_max", LAWS)
    def test_matches_scalar_pmf(self, kind, m, x, k_max):
        # the per-k scalar log pmf adds the same terms in the same order;
        # the kernel's np.exp may round to the other neighbour of math.exp's
        # result, so the rows agree to 1e-14 relative, not bitwise
        law = z_law(_one_index(kind, m), 1, TiltedParams(x, 1))
        ref = _ref_law(law.spec, 1, x)
        got = law.pmf_array(k_max)
        want = np.array([math.exp(_ref_log_pmf(ref, k))
                         for k in range(k_max + 1)])
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        # pmf(k) is entry k of pmf_array(k), and 0 below the support
        assert law.pmf(k_max) == got[k_max] and law.pmf(-1) == 0.0

    @pytest.mark.parametrize("kind,m,x,k_max", LAWS)
    def test_matches_scalar_seed_reference(self, kind, m, x, k_max):
        # the row of the kernel's rising and falling logs, with log P(Z = 0)
        # from _ref_safe_mlog1p / _ref_m_softplus: bit-identical wherever the
        # kernel's log P(Z = 0) is.  That value is at most 2 ulps off: numpy's
        # exp and log1p may round to the other neighbour of libm's, and the
        # product e^lm log1p(-t) adds the two (m = 3, t = 0.99: the kernel's
        # -13.815510557964275 is 0.5 ulp from 3 log 0.01, libm's 1.2 ulps)
        spec = _one_index(kind, m)
        law = z_law(spec, 1, TiltedParams(x, 1))
        ref = _ref_law(spec, 1, x)
        ks = range(k_max + 1)
        c = ref.log_p0
        if kind == "assembly":
            if ref.lam:
                logs = [c + k * math.log(ref.lam) - _ref_log_factorial(k)
                        for k in ks]
        else:
            prods = [0.0] + _kernel_log_products(spec, k_max).tolist()
            if kind == "multiset":
                logs = [prods[k] - _ref_log_factorial(k) + c + k * ref.lw
                        for k in ks]
            else:
                logs = [prods[k] - _ref_log_factorial(k) + k * ref.lw + c
                        for k in ks]
        assert abs(law.log_p0 - c) <= 2 * math.ulp(c)
        if kind == "assembly" and not ref.lam:
            return
        want = np.exp(np.array(logs))
        got = law.pmf_array(k_max)
        if law.log_p0 == c:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= 1e-14 * want)


_M_VALUES = {
    "selection": hs.one_of(hs.integers(0, 5), hs.integers(0, 10 ** 40)),
    "assembly": hs.one_of(hs.integers(0, 5), hs.integers(0, 10 ** 40),
                          hs.builds(Fraction, hs.integers(0, 10 ** 40),
                                    hs.integers(1, 1000))),
}
_M_VALUES["multiset"] = _M_VALUES["assembly"]


@hs.composite
def _kernel_case(draw):
    kind = draw(hs.sampled_from(sorted(_M_VALUES)))
    ms = draw(hs.lists(_M_VALUES[kind], min_size=1, max_size=12))
    theta = draw(hs.floats(0.1, 5.0))
    x_max = 0.999 * min(1.0, 1.0 / theta) if kind == "multiset" else 3.0
    x = draw(hs.floats(0.01, x_max))
    return kind, ms, x, theta, draw(hs.integers(1, 60))


def _summand_size(law, ks):
    """|log P(Z = 0)| + log k! + |k log lam| (Poisson) or + |log m^(k)| or
    |log m_(k)| + |k lw|, per k, for a scalar_refs law: the scale of
    log P(Z = k)'s rounding; inf where the product vanishes."""
    out = abs(law.log_p0) + np.array([math.lgamma(k + 1) for k in ks])
    if law.kind is st.Kind.ASSEMBLY:
        return out + (ks * abs(math.log(law.lam)) if law.lam else 0.0)
    lm = st.log_big(law.m)
    ref = (_ref_log_rising if law.kind is st.Kind.MULTISET
           else _ref_log_falling)
    return out + np.abs([ref(law.m, lm, k) for k in ks]) + ks * abs(law.lw)


class TestPmfRowsKernel:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_case())
    def test_rows_match_scalar_log_pmf(self, case):
        # every row of one z_pmf_rows call against the per-k scalar log pmf
        # of the same law, built by scalar_refs.ref_law from the exact m_i
        # (from_m_list takes log_big of its list, as ref_law does) and read
        # with the kernel's log P(Z_i = 0): m log1p(-t) moves by 1/(1 - t)
        # ulps per ulp of t, so near t = 1 the two roundings of it differ by
        # far more than the rows' bound (TestLogPZeroKernel checks that
        # value).  The reference takes its logs, log1p and exps from libm
        # and 1/m as 1/float(m); the kernel's may round each to the other
        # neighbour, so an entry agrees to 1e-14 relative or a few ulps of
        # the summands of its log (k log m, log k!, log P(Z_i = 0), k lw),
        # which cancel: m = 305688/163, k = 10 gives log P = -2.43 from
        # terms near 75, and the two differ by 1.4e-14
        kind, ms, x, theta, n = case
        spec = st.from_m_list(kind, ms)
        params = TiltedParams(x, theta)
        idx = np.arange(1, len(ms) + 1)
        lp0 = ip.log_p_zero_array(spec, len(ms), params)
        if kind == "assembly" and np.any(lp0 == -np.inf):
            with pytest.raises(NumericGuardError, match="Poisson mean"):
                z_pmf_rows(spec, idx, n // idx, params)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = z_pmf_rows(spec, idx, n // idx, params)
        for i, row in zip(idx.tolist(), rows):
            law = replace(_ref_law(spec, i, x, theta), log_p0=float(lp0[i]))
            assert len(row) == n // i + 1
            ks = np.arange(n // i + 1)
            want = np.exp([_ref_log_pmf(law, k) for k in ks])
            terms = _summand_size(law, ks)
            tol = np.maximum(1e-14, 4 * np.finfo(float).eps * terms)
            read = want >= 1e-300
            assert np.all(np.abs(row - want)[read]
                          <= tol[read] * want[read]), i
            assert np.all(row[want == 0.0] == 0.0), i
            if kind == "selection":
                assert not np.any(row[ms[i - 1] + 1:]), i


# one grid per branch of the big-m policy: lw = log(theta x^i) above and
# below log 1e-8 and log 2^-53, with a subnormal e^lw (below -708) and past
# e^lw = 0 (below -745); log m below and past 700, m = 2^60 and Fraction m
_GRID_LM = [-math.inf, 0.0, math.log(3), st.log_big(Fraction(7, 2)),
            st.log_big(Fraction(1, 3)), 30.0, st.log_big(2 ** 60), 699.9,
            700.0, 720.0, 800.0]
_GRID_LW = {
    st.Kind.MULTISET: [math.log(0.99), -0.5, -3.0, -18.42, -18.43, -30.0,
                       -37.0, -708.5, -720.0, -745.5, -800.0],
    st.Kind.SELECTION: [40.0, 30.0, 29.9, 3.0, 0.0, -3.0, -30.0, -36.7,
                        -37.0, -708.5, -720.0, -745.5, -800.0],
}


def _grid(kind):
    pairs = [(lm, lw) for lm in _GRID_LM for lw in _GRID_LW[kind]]
    return [p[0] for p in pairs], [p[1] for p in pairs]


class TestLogPZeroKernel:
    @pytest.mark.parametrize("kind", [st.Kind.MULTISET, st.Kind.SELECTION],
                             ids=lambda k: k.value)
    def test_matches_scalar_reference_on_every_branch(self, kind):
        lms, lws = _grid(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_p_zero(kind, lms, lws).tolist()
        for lm, lw, v in zip(lms, lws, got):
            if kind is st.Kind.MULTISET:
                want = _ref_safe_mlog1p(lm, math.exp(lw), lw)
            else:
                want = -_ref_m_softplus(lm, lw)
            if math.isinf(want):
                assert v == want, (lm, lw)
            else:  # 2 ulps: see test_matches_scalar_seed_reference
                assert abs(v - want) <= 2 * math.ulp(want), (lm, lw, v, want)

    def test_assembly_branch(self):
        lm = np.array([-np.inf, 0.0, 50.0, 700.0])
        lw = np.array([-3.0, 2.0, -10.0, 100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_p_zero(st.Kind.ASSEMBLY, lm, lw).tolist()
        assert got[0] == 0.0 and got[3] == -math.inf
        for i in (1, 2):
            want = -math.exp(lm[i] + lw[i])
            assert abs(got[i] - want) <= math.ulp(want)

    def test_weight_rounding_to_1_is_a_domain_error(self):
        # t = e^lw rounds to 1 although lw < 0; an index with m = 0 is skipped
        with pytest.raises(ParameterDomainError, match="reached 1"):
            log_p_zero(st.Kind.MULTISET, [0.0, 0.0], [-1.0, -1e-17])
        assert log_p_zero(st.Kind.MULTISET, [0.0, -math.inf],
                          [-1.0, -1e-17])[1] == 0.0
        # a rational x below 1 whose double is 1: t = e^lw is 1 at i = 1
        x = Fraction(10 ** 20 - 1, 10 ** 20)
        with pytest.raises(ParameterDomainError, match="reached 1"):
            z_law(st.from_m_list("multiset", [3]), 1, TiltedParams(x, 1))

    @pytest.mark.parametrize("spec,x", [
        (st.polynomials(2), 0.4999), (st.squarefree_polynomials(2), 0.5),
        (st.permutations(), 0.999), (st.from_m_list("selection", [2, 0, 3]), 2.0),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_laws_carry_the_request_array(self, spec, x):
        params = TiltedParams(x, 1)
        arr = ip.log_p_zero_array(spec, 300, params)
        for i in (1, 2, 3, 50, 300):
            law = z_law(spec, i, params)
            assert law.log_p0 == arr[i]
            if spec.kind is st.Kind.ASSEMBLY:
                assert law.lam == -arr[i]
            else:  # one index at a time, the kernel gives the same value
                lm = log_m_array(spec, i)[i]
                lw = math.log(params.ftheta) + i * math.log(params.fx)
                assert float(log_p_zero(spec.kind, lm, lw)) == law.log_p0

    def test_one_slot_keyed_by_x_theta(self):
        spec = st.polynomials(2)
        p1, p2 = TiltedParams(0.3, 1), TiltedParams(0.4, 1)
        for i in range(1, 40):
            z_law(spec, i, p1)
        assert spec._table_keys["log_p_zero"] == (0.3, 1.0)
        assert len(spec._table_cache["log_p_zero"]) == 40  # filled to n = 39
        z_law(spec, 5, p2)
        assert spec._table_keys["log_p_zero"] == (0.4, 1.0)
        assert len(spec._table_cache["log_p_zero"]) == 6
        assert [k for k in spec._table_cache if "zero" in str(k)] == ["log_p_zero"]


class TestBigMLaws:
    # the lgamma difference lgamma(m + k) - lgamma(m) cancels for big m
    # (absolute error ~ eps m log m); compare with the exact product
    @pytest.mark.parametrize("m", [1, 3, 50, 10 ** 3, 10 ** 6, 10 ** 10,
                                   3 * 10 ** 14, 2 ** 60], ids=str)
    def test_log_rising_list_matches_exact_product(self, m):
        k_max = 2000
        lm = st.log_big(m)
        got = [0.0] + _kernel_log_products(st.from_m_list("multiset", [m]),
                                           k_max).tolist()
        prod, worst = 1, 0.0
        for k in range(1, k_max + 1):
            prod *= m + k - 1
            want = st.log_big(prod)
            worst = max(worst, abs(got[k] - want) / max(1.0, abs(want)))
        assert got[0] == 0.0
        assert worst <= 2e-14
        assert _ref_log_rising(m, lm, k_max) == pytest.approx(got[k_max],
                                                              rel=1e-15)

    @pytest.mark.parametrize("spec", [st.polynomials(2), st.necklaces(2),
                                      st.polynomials(3)],
                             ids=lambda s: s.name)
    def test_negative_binomial_mass_at_most_one(self, spec):
        # polynomials(2) at x = 1/2, i = 54: m_i = 333599969907456
        params = TiltedParams(Fraction(1, 2) if spec.params["q"] == 2
                              else Fraction(1, 3), 1)
        for i in (20, 40, 54, 60, 200):
            pk = z_law(spec, i, params).pmf_array(12)
            assert float(pk.sum()) <= 1 + 1e-12, i
            # P(Z_i = 1) = m_i t (1 - t)^{m_i} with t = theta x^i
            t = float(params.x) ** i
            want = math.exp(st.log_big(spec.m(i)) + math.log(t)
                            + float(spec.m(i)) * math.log1p(-t))
            assert pk[1] == pytest.approx(want, rel=1e-9), i

    def test_softplus_past_log1p_underflow(self):
        # log1p(e^lw) underflows to 0 below lw ~ -745; m sp = e^{lm + lw}
        m_sp = -log_p_zero(st.Kind.SELECTION, [800.0, 800.0, 1000.0],
                           [-800.0, -745.2, -100.0])
        assert m_sp[0] == pytest.approx(math.exp(0.0))
        assert m_sp[1] == pytest.approx(math.exp(800.0 - 745.2), rel=1e-12)
        assert m_sp[2] == math.inf

    @pytest.mark.parametrize("lm", [690.0, 720.0, 800.0])
    @pytest.mark.parametrize("lw", [-710.0, -720.0, -740.0])
    def test_softplus_with_subnormal_weight(self, lm, lw):
        # e^lw is subnormal here, so log1p(e^lw) keeps only a few digits;
        # squarefree_polynomials(2) meets this at i >= 1024 near x = 1/2
        m_sp = -float(log_p_zero(st.Kind.SELECTION, lm, lw))
        assert m_sp == pytest.approx(math.exp(lm + lw), rel=1e-13)


class TestTiltedParamsDomain:
    @pytest.mark.parametrize("x,theta", [(math.inf, 1), (1, math.inf),
                                         (math.nan, 1), (10 ** 400, 1),
                                         (1, 0), (-1, 1)],
                             ids=["x_inf", "theta_inf", "x_nan", "x_1e400",
                                  "theta_0", "x_negative"])
    def test_rejects_non_finite_or_non_positive(self, x, theta):
        with pytest.raises(ParameterDomainError):
            TiltedParams(x, theta)


class TestLogistic:
    """expit, expit_float and log_expit against the math formulas
    e^w/(1 + e^w) (w < 0) or 1/(1 + e^-w), and w - log1p(e^w) (w < 0) or
    -log1p(e^-w), on [-800, 800] with no RuntimeWarning."""

    W = np.linspace(-800.0, 800.0, 16001)

    @staticmethod
    def _ref_expit(w):
        if w < 0:
            e = math.exp(w)
            return e / (1.0 + e)
        return 1.0 / (1.0 + math.exp(-w))

    @staticmethod
    def _ref_log_expit(w):
        return w - math.log1p(math.exp(w)) if w < 0 else -math.log1p(math.exp(-w))

    def test_expit(self):
        want = np.array([self._ref_expit(w) for w in self.W.tolist()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ip.expit(self.W)
            one = np.array([ip.expit_float(w) for w in self.W.tolist()])
        live = want > 0  # e^w is 0.0 below w = -745.2
        assert np.all(got[~live] == 0) and np.all(one[~live] == 0)
        for g in (got, one):
            assert np.max(np.abs(g[live] - want[live]) / want[live]) <= 1e-15

    def test_log_expit(self):
        want = np.array([self._ref_log_expit(w) for w in self.W.tolist()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ip.log_expit(self.W)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) \
            <= 1e-15


class TestRefinedLaw:
    def test_examples(self):
        assembly = st.from_m_list("assembly", [1, 2, 1, 1])
        y = refined_y_law(assembly, 2, TiltedParams(1, 1))
        assert y.spec.kind is st.Kind.ASSEMBLY and y.lam == pytest.approx(0.5)
        sel = st.from_m_list("selection", [2])
        y = refined_y_law(sel, 1, TiltedParams(1, 1))
        assert y.spec.kind is st.Kind.SELECTION and y.spec.m(1) == 1  # Bernoulli
        assert y.pmf(1) == pytest.approx(0.5, rel=1e-14)
        mul = st.from_m_list("multiset", [1, 1, 2])
        y = refined_y_law(mul, 3, TiltedParams(0.5, 1))
        assert y.spec.kind is st.Kind.MULTISET and y.spec.m(3) == 1  # geometric
        assert y.pmf(0) == pytest.approx(1 - 0.125, rel=1e-14)
        assert y.pmf(1) == pytest.approx(0.875 * 0.125, rel=1e-14)

    def test_convolution_identity(self):
        # m_i-fold convolution of the refined law reproduces z_law
        k_top = 24
        for kind, x, theta in (("assembly", 0.9, 1.0), ("assembly", 1.1, 2.0),
                               ("multiset", 0.45, 1.5), ("multiset", 0.7, 1.0),
                               ("selection", 1.0, 1.0), ("selection", 0.8, 2.0)):
            for m_i in (1, 2, 3, 5):
                for i in (1, 2, 5, 8):
                    spec = st.from_m_list(kind, [0] * (i - 1) + [m_i])
                    params = TiltedParams(x, theta)
                    z = z_law(spec, i, params).pmf_array(k_top)
                    y = refined_y_law(spec, i, params).pmf_array(k_top)
                    conv = np.array([1.0])
                    for _ in range(m_i):
                        conv = np.convolve(conv, y)[: k_top + 1]
                    assert np.max(np.abs(conv - z[: len(conv)])) < 1e-12


class TestTiltConsistency:
    def test_exponential_tilt(self):
        # z_law(theta).pmf(k) = theta^k z_law(1).pmf(k) / E_1 theta^{Z}
        for spec, x in ((st.permutations(), 0.8),
                        (st.integer_partitions(), 0.4),
                        (st.distinct_partitions(), 0.9)):
            for i in (1, 2, 4):
                for theta in (0.5, 2.0):
                    base = z_law(spec, i, TiltedParams(x, 1))
                    tilted = z_law(spec, i, TiltedParams(x, theta))
                    ks = np.arange(120)
                    p1 = np.array([base.pmf(int(k)) for k in ks])
                    norm = float(np.dot(theta ** ks, p1))
                    for k in range(12):
                        want = theta ** k * p1[k] / norm
                        assert tilted.pmf(k) == pytest.approx(want, abs=1e-12)


class TestSumMoments:
    def test_permutations(self):
        sm = sum_moments(st.permutations(), 25, TiltedParams(1, 1))
        assert sm.mean == pytest.approx(25.0, rel=1e-12)
        assert sm.variance == pytest.approx(25 * 26 / 2, rel=1e-12)

    def test_integer_partition_variance_asymptotics(self):
        n = 10 ** 4
        x = math.exp(-math.pi / math.sqrt(6 * n))
        sm = sum_moments(st.integer_partitions(), n, TiltedParams(x, 1))
        limit = 2 * math.sqrt(6) / math.pi
        assert abs(sm.variance / n ** 1.5 / limit - 1) < 0.10

    def test_mean_vanishes_with_x(self):
        for spec in (st.permutations(), st.integer_partitions(),
                     st.distinct_partitions()):
            assert sum_moments(spec, 20, TiltedParams(1e-12, 1)).mean < 1e-11

    def test_variance_nonnegative(self):
        sm = sum_moments(st.squarefree_polynomials(2), 30, TiltedParams(0.4, 0.7))
        assert sm.variance >= 0


class TestChooseX:
    def test_set_partition_at_e(self):
        assert solve_xex(math.e) == pytest.approx(1.0, abs=1e-12)
        assert choose_x(st.set_partitions(), 100, 1, "set_partition") == \
            pytest.approx(solve_xex(100))

    def test_integer_partition_formula(self):
        x = choose_x(st.integer_partitions(), 100, 1, XStrategy.INTEGER_PARTITION)
        assert x == math.exp(-math.pi / math.sqrt(600))

    def test_distinct_formulas(self):
        assert choose_x(st.distinct_partitions(), 50, 1, "distinct_partition") \
            == math.exp(-math.pi / math.sqrt(12 * 50))
        assert choose_x(st.distinct_odd_partitions(), 50, 1,
                        "distinct_odd_partition") \
            == math.exp(-math.pi / math.sqrt(24 * 50))

    def test_logarithmic(self):
        assert choose_x(st.polynomials(2), 100, 1, "logarithmic") == 0.5
        x = choose_x(st.esf(2), 100, 1, "logarithmic_tilted")
        assert x == pytest.approx(math.exp(-(2 - 1) / 100), rel=1e-14)
        x = choose_x(st.esf(2), 100, 0.5, "logarithmic_tilted")
        assert x == pytest.approx(1.0, rel=1e-14)  # kappa*theta = 1 -> c = 0

    def test_mappings_logarithmic_mean(self):
        # x = 1/e makes i E Z_i -> 1/2, so E T_n approaches n/2
        spec = st.mappings()
        x = choose_x(spec, 400, 1, "logarithmic")
        assert x == pytest.approx(1 / math.e, rel=1e-14)
        mean = sum_moments(spec, 400, TiltedParams(x, 1)).mean
        assert abs(mean / 400 - 0.5) < 0.02

    def test_exact_mean_residual_and_uniqueness(self):
        for spec, n in ((st.permutations(), 150), (st.mappings(), 80),
                        (st.set_partitions(), 120),
                        (st.integer_partitions(), 90),
                        (st.distinct_partitions(), 90)):
            x = choose_x(spec, n, 1, XStrategy.EXACT_MEAN)
            res = abs(sum_moments(spec, n, TiltedParams(x, 1)).mean - n)
            assert res <= 1e-9 * n
            # independent solver from a different bracket agrees to 1e-9
            f = lambda t: sum_moments(spec, n, TiltedParams(t, 1)).mean - n
            x_ref = brentq(f, x / 3, min(x * 3, 1 - 1e-12)
                           if spec.kind is st.Kind.MULTISET else x * 3,
                           xtol=1e-14)
            assert abs(x - x_ref) <= 1e-9 * x_ref

    def test_exact_mean_tilted(self):
        x = choose_x(st.permutations(), 60, 2, XStrategy.EXACT_MEAN)
        assert abs(sum_moments(st.permutations(), 60,
                               TiltedParams(x, 2)).mean - 60) <= 1e-9 * 60

    def test_multiset_supremum_failure_reported(self):
        spec = st.from_m_list("multiset", [0, 1], name="gap_multiset")
        with pytest.raises(ParameterDomainError, match="supremum"):
            choose_x(spec, 50, 4, XStrategy.EXACT_MEAN)

    def test_strategy_spec_mismatch(self):
        with pytest.raises(ParameterDomainError):
            choose_x(st.permutations(), 10, 1, XStrategy.INTEGER_PARTITION)
        with pytest.raises(ParameterDomainError):
            choose_x(st.integer_partitions(), 10, 1, XStrategy.LOGARITHMIC)


def _ref_bisection(spec, n, theta):
    """The bracketed bisection choose_x used before the Newton iteration:
    a doubling bracket, then bisection to 1e-12 relative in x."""
    def mean_at(x):
        return sum_moments(spec, n, TiltedParams(x=x, theta=theta)).mean

    hi_cap = math.inf
    if spec.kind is st.Kind.MULTISET:
        hi_cap = min(1.0, 1.0 / float(theta)) * (1.0 - 1e-12)
    lo = min(1.0, hi_cap / 2) if math.isfinite(hi_cap) else 1.0
    while mean_at(lo) > n:
        lo /= 2.0
    hi = lo
    while mean_at(hi) < n:
        hi = min(hi * 2.0, hi_cap)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < n:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    x = 0.5 * (lo + hi)
    if abs(mean_at(x) - n) > 1e-9 * n:
        raise NumericGuardError("bisection stalled")
    return x


SOLVER_SPECS = [st.permutations(), st.mappings(), st.set_partitions(),
                st.two_regular_graphs(), st.esf(Fraction(1, 2)), st.esf(2),
                st.integer_partitions(), st.polynomials(2), st.necklaces(3),
                st.distinct_partitions(), st.distinct_odd_partitions(),
                st.squarefree_polynomials(2)]


def _counted_choose_x(monkeypatch, spec, n, theta=1):
    calls = []
    real = ip.sum_moments

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)
    monkeypatch.setattr(ip, "sum_moments", counted)
    x = choose_x(spec, n, theta)
    monkeypatch.setattr(ip, "sum_moments", real)
    return x, len(calls)


class TestNewtonExactMean:
    def test_every_builtin_covered(self):
        names = {sp.params.get("builtin") for sp in SOLVER_SPECS}
        assert names == set(st.BUILTINS)

    @pytest.mark.parametrize("theta", [1, 2, Fraction(1, 2)], ids=str)
    @pytest.mark.parametrize("spec", SOLVER_SPECS, ids=lambda s: s.name)
    def test_matches_bisection(self, spec, theta):
        for n in (100, 1000, 4000):
            x = choose_x(spec, n, theta)
            try:
                x_ref = _ref_bisection(spec, n, theta)
            except NumericGuardError:
                continue
            assert abs(x - x_ref) <= 1e-11 * x_ref, n

    @pytest.mark.parametrize("spec", SOLVER_SPECS, ids=lambda s: s.name)
    def test_at_most_20_mean_evaluations(self, spec, monkeypatch):
        for n in (1000, 4000, 16000):
            x, evals = _counted_choose_x(monkeypatch, spec, n)
            assert evals <= 20, (n, evals)
            res = abs(sum_moments(spec, n, TiltedParams(x, 1)).mean - n)
            assert res <= 1e-9 * n, n

    def test_settled_bracket_end_is_returned(self, monkeypatch):
        # E T_n = n at x = 1 for permutations: the first evaluation settles
        x, evals = _counted_choose_x(monkeypatch, st.permutations(), 4000)
        assert x == 1.0 and evals == 1

    # the (family, theta) pairs whose bisection stalls at n = 16000: the
    # last x step of 1e-12 moves E T_n by more than 1e-9 n
    @pytest.mark.parametrize("spec,theta", [
        (st.permutations(), 1), (st.permutations(), 2),
        (st.mappings(), Fraction(1, 2)),
        (st.two_regular_graphs(), Fraction(1, 2)),
        (st.two_regular_graphs(), 1),
        (st.esf(Fraction(1, 2)), Fraction(1, 2)), (st.esf(Fraction(1, 2)), 2),
        (st.esf(2), Fraction(1, 2)), (st.esf(2), 1),
        (st.integer_partitions(), 2), (st.polynomials(2), 1),
        (st.necklaces(3), Fraction(1, 2)), (st.necklaces(3), 1),
        (st.necklaces(2), 1), (st.squarefree_polynomials(2), 2),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_bisection_stall_cases_solved(self, spec, theta):
        n = 16000
        x = choose_x(spec, n, theta)
        res = abs(sum_moments(spec, n, TiltedParams(x, theta)).mean - n)
        assert res <= 1e-9 * n


class TestFloatLogMRoutes:
    def test_choose_x_builds_no_exact_m(self):
        spec = st.permutations()
        choose_x(spec, 4000)
        assert spec._m_cache == {}

    def test_assembly_z_law_builds_no_exact_m(self):
        spec = st.mappings()
        lam = z_law(spec, 300, TiltedParams(1 / math.e, 1)).lam
        assert spec._m_cache == {}
        want = math.exp(st.log_big(spec.m(300)) - 300 - math.lgamma(301))
        assert lam == pytest.approx(want, rel=1e-12)

    def test_specs_without_log_m_fn_take_exact_logs(self):
        spec = st.StructureSpec(st.Kind.SELECTION, "hand_built",
                                lambda i: [2, 0, 3][i - 1] if i <= 3 else 0)
        got = log_m_array(spec, 5)
        want = [-math.inf, math.log(2), -math.inf, math.log(3), -math.inf,
                -math.inf]
        assert got.tolist() == want

    def test_refill_to_exactly_the_read(self):
        spec = st.permutations()
        for i in range(1, 40):
            z_law(spec, i, TiltedParams(1, 1))
        arr = spec._table_cache["log_m"]
        assert len(arr) == 40
        for m in (0, 1, 20, 39):  # a read up to m <= n builds nothing
            assert len(log_m_array(spec, m)) == m + 1
            assert spec._table_cache["log_m"] is arr
        log_m_array(spec, 41)  # a read past n rebuilds to exactly its length
        assert len(spec._table_cache["log_m"]) == 42


class TestSumMomentsOverflow:
    @pytest.mark.parametrize("spec", [st.esf(Fraction(1, 2)),
                                      st.two_regular_graphs(),
                                      st.polynomials(2),
                                      st.squarefree_polynomials(2),
                                      st.permutations()],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [1000, 4000])
    def test_choose_x_raises_no_runtime_warning(self, spec, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = choose_x(spec, n)
            mean = sum_moments(spec, n, TiltedParams(x, 1)).mean
        assert abs(mean - n) <= 1e-9 * n

    def test_overflowing_sum_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sm = sum_moments(st.permutations(), 4000, TiltedParams(2.0, 1))
        assert sm.mean == math.inf and sm.variance == math.inf


class TestOneLawRoute:
    """z_law's DiscreteLaw is a view of one z_pmf_rows row, so the two give
    the same bits (a law that rebuilt log m_i from the exact m_i and log k!
    from its own lgamma list differed in 216 of 597 rows of polynomials(2),
    polynomials(3) and squarefree_polynomials(2), by up to 2.3e-13)."""

    @pytest.mark.parametrize("spec", SOLVER_SPECS, ids=lambda s: s.name)
    def test_z_law_row_is_the_kernel_row(self, spec):
        params = TiltedParams(choose_x(spec, 100), 1)
        for i in range(1, 201):
            law = z_law(spec, i, params)
            for k in range(7):
                want = z_pmf_rows(spec, [i], k, params)[0]
                assert law.pmf_array(k).tobytes() == want.tobytes(), (i, k)

    @pytest.mark.parametrize("spec", SOLVER_SPECS, ids=lambda s: s.name)
    def test_refined_law_is_the_one_structure_row(self, spec):
        # Y_ij is Z_i of the family of the same kind whose one structure
        # has size i
        params = TiltedParams(choose_x(spec, 100), 1)
        for i in range(1, 201):
            one = st.from_m_list(spec.kind, [0] * (i - 1) + [1])
            y = refined_y_law(spec, i, params)
            for k in range(7):
                want = z_pmf_rows(one, [i], k, params)[0]
                assert y.pmf_array(k).tobytes() == want.tobytes(), (i, k)


def _mean_var_sums(spec, n, params):
    """(E T_n, Var T_n) as sums over mean_var_arrays, the route sum_moments
    took before its grid: numpy's reductions of i E Z_i and i^2 Var Z_i,
    a sum that is not finite read as inf."""
    mean, var = ip.mean_var_arrays(spec, n, params)
    i = np.arange(n + 1, dtype=float)
    with np.errstate(over="ignore"):
        et, vt = float((i * mean).sum()), float((i * i * var).sum())
    return (et if math.isfinite(et) else math.inf,
            vt if math.isfinite(vt) else math.inf)


class TestSumMomentsMatchesMeanVarArrays:
    """sum_moments forms E Z_i and Var Z_i without mean_var_arrays' isfinite
    passes, on a grid made once per exact-mean solve; its sums are the bits
    of the sums over mean_var_arrays at every x."""

    @pytest.mark.parametrize("n", [1000, 16000])
    @pytest.mark.parametrize("spec", SOLVER_SPECS, ids=lambda s: s.name)
    def test_every_point_the_solve_visits(self, spec, n, monkeypatch):
        seen = []
        real = ip.sum_moments

        def spy(spec_, n_, params, *grid):
            out = real(spec_, n_, params, *grid)
            seen.append((params, out, len(grid)))
            return out
        monkeypatch.setattr(ip, "sum_moments", spy)
        choose_x(spec, n)
        monkeypatch.setattr(ip, "sum_moments", real)
        assert seen and all(passed == 1 for _p, _o, passed in seen)
        points = [(params, out) for params, out, _g in seen]
        if spec.kind is st.Kind.MULTISET:  # next to the pole x = 1
            for gap in (1e-12, 1e-9, 1e-6):
                params = TiltedParams(1.0 - gap, 1)
                points.append((params, real(spec, n, params)))
        for params, out in points:
            want = _mean_var_sums(spec, n, params)
            got = (out.mean, out.variance)
            assert [v.hex() for v in got] == [v.hex() for v in want], params.x
            again = real(spec, n, params)  # no grid handed in
            assert (again.mean, again.variance) == got

    @pytest.mark.parametrize("spec,n,x", [
        (st.mappings(), 16000, 1.0),        # the solve's first bracket point
        (st.permutations(), 4000, 2.0),
        (st.polynomials(2), 16000, 1.0 - 1e-12),  # next to the pole
        (st.squarefree_polynomials(2), 2000, 2.0),  # m_i past double range
    ], ids=["mappings", "permutations", "polynomials2", "squarefree"])
    def test_sums_beyond_double_range(self, spec, n, x):
        params = TiltedParams(x, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sm = sum_moments(spec, n, params)
        assert (sm.mean, sm.variance) == _mean_var_sums(spec, n, params)
        assert math.inf in (sm.mean, sm.variance)


class TestOneLogFactorialFill:
    """z_pmf_rows fills the "log_factorial" slot once, as far as any of its
    row blocks or rising logs read, not once per block; the entries are
    elementwise, so the rows keep their bits."""

    @pytest.mark.parametrize("n", [1000, 16000])
    @pytest.mark.parametrize("make", [
        st.integer_partitions, lambda: st.polynomials(2), st.permutations,
        st.set_partitions, st.distinct_partitions,
        lambda: st.from_m_list("multiset", [1, 0, 2.5, 3], name="m_frac")],
        ids=["integer_partitions", "polynomials2", "permutations",
             "set_partitions", "distinct_partitions", "m_frac"])
    def test_the_table_call_fills_once(self, make, n, monkeypatch):
        spec, other = make(), make()
        x = choose_x(spec, n) if "builtin" in spec.params else 0.5
        params = TiltedParams(x, 1)
        calls = []
        real = st.log_factorials

        def counted(k):
            calls.append(k)
            return real(k)
        monkeypatch.setattr(st, "log_factorials", counted)
        monkeypatch.setattr(ip, "log_factorials", counted)
        i = np.arange(1, n + 1)
        rows = z_pmf_rows(spec, range(1, n + 1), n // i, params)
        assert len(calls) == 1
        # rows read alone, K ascending, fill the slot as far as each reads
        for r in (n - 1, n // 2, 9, 2, 1, 0):
            alone = z_pmf_rows(other, [r + 1], n // (r + 1), params)[0]
            assert alone.tobytes() == rows[r].tobytes(), r
