"""Per-index laws, refinement convolution identity, tilt consistency,
weighted-sum moments, and the choice-of-x solvers."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from combstruct import structures as st
from combstruct.errors import ParameterDomainError
from combstruct.indep_process import (DiscreteLaw, Family, TiltedParams,
                                      XStrategy, choose_x, log_m_array,
                                      refined_y_law, solve_xex, sum_moments,
                                      z_law)


class TestZLaw:
    def test_permutations_poisson(self):
        law = z_law(st.permutations(), 5, TiltedParams(1, 1))
        assert law.family is Family.POISSON
        assert law.lam == pytest.approx(0.2, abs=1e-15)

    def test_integer_partition_geometric(self):
        law = z_law(st.integer_partitions(), 1, TiltedParams(0.5, 1))
        assert law.family is Family.GEOMETRIC
        for k in range(6):
            assert law.pmf(k) == pytest.approx(2.0 ** -(k + 1), rel=1e-14)

    def test_theta_scales_poisson_mean(self):
        spec = st.mappings()
        l1 = z_law(spec, 4, TiltedParams(0.3, 1))
        l2 = z_law(spec, 4, TiltedParams(0.3, 2))
        assert l2.lam == pytest.approx(2 * l1.lam, rel=1e-14)

    def test_multiset_needs_valid_tilt(self):
        with pytest.raises(ParameterDomainError):
            z_law(st.integer_partitions(), 1, TiltedParams(0.8, 2))

    def test_selection_binomial(self):
        law = z_law(st.from_m_list("selection", [3]), 1, TiltedParams(1, 1))
        assert law.family is Family.BINOMIAL
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
    # (law, k_max): every family and every branch of the rising/falling logs
    LAWS = [
        (DiscreteLaw(Family.POISSON, lam=0.0), 5),
        (DiscreteLaw(Family.POISSON, lam=0.3), 300),
        (DiscreteLaw(Family.POISSON, lam=200.0), 1000),
    ] + [
        (DiscreteLaw(Family.NEG_BINOMIAL, m=m, p=math.exp(lw), lw=lw), 600)
        for m in (1, 3, 10 ** 6, 10 ** 40, Fraction(1, 3), Fraction(7, 2))
        for lw in (-30.0, -3.0, math.log(0.99))
    ] + [
        (DiscreteLaw(Family.BINOMIAL, m=m, p=1 / (1 + math.exp(-lw)), lw=lw),
         600)
        for m in (1, 3, 50, 10 ** 6, 10 ** 40, Fraction(7, 2))
        for lw in (-30.0, 0.0, 3.0)
    ]

    @pytest.mark.parametrize("law,k_max", LAWS)
    def test_matches_scalar_pmf(self, law, k_max):
        got = law.pmf_array(k_max)
        want = np.array([law.pmf(k) for k in range(k_max + 1)])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


class TestTiltedParamsDomain:
    @pytest.mark.parametrize("x,theta", [(math.inf, 1), (1, math.inf),
                                         (math.nan, 1), (10 ** 400, 1),
                                         (1, 0), (-1, 1)],
                             ids=["x_inf", "theta_inf", "x_nan", "x_1e400",
                                  "theta_0", "x_negative"])
    def test_rejects_non_finite_or_non_positive(self, x, theta):
        with pytest.raises(ParameterDomainError):
            TiltedParams(x, theta)


class TestRefinedLaw:
    def test_examples(self):
        assembly = st.from_m_list("assembly", [1, 2, 1, 1])
        y = refined_y_law(assembly, 2, TiltedParams(1, 1))
        assert y.family is Family.POISSON and y.lam == pytest.approx(0.5)
        sel = st.from_m_list("selection", [2])
        y = refined_y_law(sel, 1, TiltedParams(1, 1))
        assert y.family is Family.BERNOULLI
        assert y.pmf(1) == pytest.approx(0.5, rel=1e-14)
        mul = st.from_m_list("multiset", [1, 1, 2])
        y = refined_y_law(mul, 3, TiltedParams(0.5, 1))
        assert y.family is Family.GEOMETRIC
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
        spec = st.from_m_list("selection", [2, 0, 3])
        got = log_m_array(spec, 5)
        want = [-math.inf, math.log(2), -math.inf, math.log(3), -math.inf,
                -math.inf]
        assert got.tolist() == want

    def test_refill_at_least_doubles(self):
        spec = st.permutations()
        for i in range(1, 40):
            z_law(spec, i, TiltedParams(1, 1))
        assert len(spec._table_cache["log_m"]) == 65  # fills of 1, 2, 4, ..., 64


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
