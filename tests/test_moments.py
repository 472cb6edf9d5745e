"""Falling-factorial moment formulas against exact enumeration."""

import math
from fractions import Fraction

import pytest

from combstruct import structures as st
from combstruct import moments as mom
from combstruct import oracle as orc
from combstruct.errors import NumericGuardError, ParameterDomainError
from combstruct.indep_process import TiltedParams, choose_x


def oracle_joint_moment(law, orders):
    def f(a):
        out = Fraction(1)
        for j, r in orders.items():
            for t in range(r):
                out *= (a[j - 1] - t)
        return out
    return law.expectation(f)


class TestAssemblyJoint:
    def test_vanishes_above_n(self):
        assert mom.factorial_moment_assembly(st.permutations(), 4, {5: 1}) == 0.0
        assert mom.factorial_moment_assembly(st.permutations(), 4, {2: 3}) == 0.0

    def test_permutation_means(self):
        perm = st.permutations()
        for n in (5, 8):
            for j in range(1, n + 1):
                got = mom.factorial_moment_assembly(perm, n, {j: 1})
                assert got == pytest.approx(1 / j, rel=1e-12)

    def test_oracle_agreement_joint(self):
        specs = (st.permutations(), st.set_partitions(), st.mappings(),
                 st.esf(2), st.esf(Fraction(1, 2)))
        orders_list = ({1: 1}, {2: 1}, {1: 2}, {1: 1, 2: 1}, {3: 2}, {1: 3},
                       {2: 2, 3: 1})
        for spec in specs:
            for theta in (Fraction(1, 2), 1, 2):
                for n in (6, 10):
                    law = orc.exact_joint_law(spec, n, theta)
                    for orders in orders_list:
                        want = float(oracle_joint_moment(law, orders))
                        got = mom.factorial_moment_assembly(spec, n, orders,
                                                            theta=theta)
                        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_esf_theta2_example(self):
        got = mom.factorial_moment_assembly(st.esf(2), 2, {1: 1})
        assert got == pytest.approx(4 / 3, rel=1e-12)

    def test_kind_check(self):
        with pytest.raises(ParameterDomainError):
            mom.factorial_moment_assembly(st.integer_partitions(), 4, {1: 1})

    def test_float_path_matches_exact(self):
        perm = st.permutations()
        n = 40
        exact = mom.factorial_moment_assembly(perm, n, {2: 2, 5: 1}, theta=2)
        via_float = mom.factorial_moment_assembly(
            perm, n, {2: 2, 5: 1}, params=TiltedParams(1.0, 2.0), theta=2.0)
        assert via_float == pytest.approx(exact, rel=1e-12)
        loose = mom.factorial_moment_assembly(perm, n, {2: 2, 5: 1}, theta=2.0)
        assert loose == pytest.approx(exact, rel=1e-9)


class TestSingleIndex:
    def test_integer_partition_example(self):
        # E C_2 over the five partitions of 4 is (0+1+0+2+0)/5
        got = mom.factorial_moment_single(st.integer_partitions(), 4, 2, 1)
        assert got == pytest.approx(3 / 5, rel=1e-14)

    def test_distinct_partition_example(self):
        # E C_3(3) = q(0)/q(3) over distinct partitions of 3
        got = mom.factorial_moment_single(st.distinct_partitions(), 3, 3, 1)
        assert got == pytest.approx(1 / 2, rel=1e-14)

    def test_selection_r_above_m_vanishes(self):
        spec = st.from_m_list("selection", [1, 1, 1])
        assert mom.factorial_moment_single(spec, 3, 1, 2) == 0.0

    def test_oracle_agreement_single(self):
        specs = (st.integer_partitions(), st.polynomials(2),
                 st.distinct_partitions(), st.distinct_odd_partitions(),
                 st.squarefree_polynomials(2))
        for spec in specs:
            for theta in (Fraction(1, 2), 1, 2):
                for n in (6, 10):
                    law = orc.exact_joint_law(spec, n, theta)
                    for j in (1, 2, 3, 4):
                        for r in (1, 2, 3):
                            want = float(oracle_joint_moment(law, {j: r}))
                            got = mom.factorial_moment_single(spec, n, j, r,
                                                              theta=theta)
                            assert got == pytest.approx(want, rel=1e-10,
                                                        abs=1e-10), \
                                (spec.name, theta, n, j, r)

    def test_assembly_delegates(self):
        a = mom.factorial_moment_single(st.permutations(), 8, 2, 2)
        b = mom.factorial_moment_assembly(st.permutations(), 8, {2: 2})
        assert a == b

    def test_mean_matches_conditioned_marginal(self):
        # E C_j equals the mean of the conditioned law of R_{j}/j
        import numpy as np
        from combstruct import sumdist as sd
        for spec, x in ((st.permutations(), 1.0),
                        (st.integer_partitions(), 0.5),
                        (st.distinct_partitions(), 1.0)):
            n = 9
            for j in (1, 2, 3):
                cond = sd.conditioned_R_pmf(spec, [j], n, TiltedParams(x, 1))
                mean_over_j = cond.mean() / j
                want = mom.factorial_moment_single(spec, n, j, 1)
                assert mean_over_j == pytest.approx(want, abs=1e-11)

    def test_float_path_matches_exact(self):
        ip = st.integer_partitions()
        exact = mom.factorial_moment_single(ip, 30, 3, 2, theta=2)
        loose = mom.factorial_moment_single(ip, 30, 3, 2, theta=2.0,
                                            params=TiltedParams(0.4, 2.0))
        assert loose == pytest.approx(exact, rel=1e-9)
        dp = st.distinct_partitions()
        exact = mom.factorial_moment_single(dp, 30, 2, 2, theta=1)
        loose = mom.factorial_moment_single(dp, 30, 2, 2, theta=1.0,
                                            params=TiltedParams(1.0, 1.0))
        assert loose == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("make", [st.integer_partitions,
                                      st.set_partitions],
                             ids=lambda f: f.__name__)
    def test_float_table_built_once_per_key(self, make, monkeypatch):
        # the rows of `moments --j 1..n` above the exact cutoff read one
        # checked log p_theta table, built again only for a new (n, theta, x)
        n = st.EXACT_CUTOFF + 88
        want = [mom.factorial_moment_single(make(), n, j, 1)
                for j in (1, 7, n)]
        calls = []
        orig = mom.log_ptheta_table

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return orig(*args, **kwargs)
        monkeypatch.setattr(mom, "log_ptheta_table", counting)
        spec = make()
        got = [mom.factorial_moment_single(spec, n, j, 1)
               for j in range(1, n + 1)]
        assert len(calls) == 1
        assert [got[0], got[6], got[-1]] == want
        mom.factorial_moment_single(spec, n, 3, 2)  # another r, same table
        assert len(calls) == 1
        x = choose_x(spec, n, 1.0, "exact_mean")
        mom.factorial_moment_single(spec, n, 3, 1, TiltedParams(x, 1.0))
        mom.factorial_moment_single(spec, n, 3, 1, theta=2.0)
        mom.factorial_moment_single(spec, n - 1, 3, 1)
        assert len(calls) == 4
        mom.factorial_moment_single(spec, n - 1, 5, 1)
        assert len(calls) == 4


def _fraction_per_term_moment(spec, n, j, r, theta):
    """The exact single-index moment with one Fraction added per term."""
    tab = st.ptheta_table(spec, n, theta)
    total = Fraction(0)
    for m in range(r, n // j + 1):
        term = math.comb(m - 1, r - 1) * Fraction(theta) ** m \
            * Fraction(tab[n - j * m])
        total += -term if spec.kind is st.Kind.SELECTION and (m - r) % 2 \
            else term
    lead = (st.rising if spec.kind is st.Kind.MULTISET else st.falling)(
        spec.m(j), r)
    return float(lead * total / Fraction(tab[n]))


class TestExactThetaDomain:
    @pytest.mark.parametrize("theta", [0, -1], ids=str)
    def test_non_positive_theta_is_a_domain_error(self, theta):
        # factorial_moment_single(integer_partitions(), 5, 1, 1, theta=-1)
        # used to return 4.0 from a table built at theta = -1
        for call in (
                lambda: mom.factorial_moment_single(st.integer_partitions(),
                                                    5, 1, 1, theta=theta),
                lambda: mom.factorial_moment_single(st.distinct_partitions(),
                                                    5, 1, 1, theta=theta),
                lambda: mom.factorial_moment_assembly(st.permutations(), 5,
                                                      {1: 1}, theta=theta)):
            with pytest.raises(ParameterDomainError,
                               match="theta must be positive"):
                call()

    @pytest.mark.parametrize("theta", [0, -1, -1.0], ids=str)
    def test_zero_moments_check_theta_first(self, theta):
        # a moment that is 0 at every positive theta (j r > n, or m_j = 0)
        # used to return 0.0 before theta was checked
        for call in (
                lambda: mom.factorial_moment_single(st.integer_partitions(),
                                                    5, 6, 1, theta=theta),
                lambda: mom.factorial_moment_single(st.distinct_partitions(),
                                                    5, 3, 2, theta=theta),
                lambda: mom.factorial_moment_single(
                    st.distinct_odd_partitions(), 5, 2, 1, theta=theta),
                lambda: mom.factorial_moment_assembly(st.permutations(), 5,
                                                      {6: 1}, theta=theta),
                lambda: mom.factorial_moment_assembly(
                    st.from_m_list("assembly", [1, 0]), 5, {2: 1},
                    theta=theta)):
            with pytest.raises(ParameterDomainError,
                               match="theta must be positive"):
                call()


class TestExactSumOneFraction:
    # the exact branch adds integers over one common denominator; the
    # rational, and so its float, is the one a Fraction per term gives
    @pytest.mark.parametrize("spec", [
        st.integer_partitions(), st.polynomials(2), st.distinct_partitions(),
        st.squarefree_polynomials(2),
        st.from_m_list("multiset", [0.5, Fraction(3, 2), Fraction(1, 3)] * 4),
        st.from_m_list("selection", [0, 2, 1, 0, 3] * 12),
    ], ids=lambda s: s.name)
    def test_equals_fraction_per_term(self, spec):
        for n in (40, 200):
            for theta in (1, 2, Fraction(1, 2), Fraction(3, 5)):
                for j in (1, 2, 3, 7):
                    for r in (1, 2):
                        got = mom.factorial_moment_single(spec, n, j, r,
                                                          theta=theta)
                        want = _fraction_per_term_moment(spec, n, j, r, theta)
                        assert got == want, (n, theta, j, r)


def _exact_single_moment(spec, n, j, r, theta):
    """E (C_j(n))_[r] of a selection from the exact table, any n."""
    tab = st.ptheta_table(spec, n, theta)
    total = sum((-1) ** (m - r) * math.comb(m - 1, r - 1)
                * Fraction(theta) ** m * tab[n - j * m]
                for m in range(r, n // j + 1))
    return float(st.falling(spec.m(j), r) * total / Fraction(tab[n]))


class TestSelectionFloatMoments:
    @pytest.mark.parametrize("spec", [st.distinct_partitions(),
                                      st.distinct_odd_partitions(),
                                      st.squarefree_polynomials(2)],
                             ids=lambda s: s.name)
    def test_matches_exact_table_above_cutoff(self, spec):
        n = 600  # above EXACT_CUTOFF: the float table and the float sum
        for j in (1, 3, 5):
            got = mom.factorial_moment_single(spec, n, j, 1, theta=1)
            want = _exact_single_moment(spec, n, j, 1, 1)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), j

    @pytest.mark.parametrize("spec", [st.distinct_partitions(),
                                      st.distinct_odd_partitions()],
                             ids=lambda s: s.name)
    def test_cancelling_sum_raises(self, spec):
        # at theta = 2 the alternating terms theta^m p(n-m) / p(n) reach
        # 1e271 for a sum below 1; the sum would print garbage (-1.5e266)
        with pytest.raises(NumericGuardError, match="cancels"):
            mom.factorial_moment_single(spec, 1000, 1, 1, theta=2)


class TestEsfClosedForms:
    def test_kappa_one_is_uniform_permutations(self):
        assert mom.esf_pmf(3, 1, (0, 0, 1)) == Fraction(1, 3)

    def test_example_pmf(self):
        assert mom.esf_pmf(2, 2, (2, 0)) == Fraction(2, 3)

    def test_incomplete_vanishes(self):
        assert mom.esf_pmf(3, 2, (1, 0, 0)) == 0

    def test_pmf_matches_oracle(self):
        for kappa in (Fraction(1, 2), 1, 3):
            spec = st.esf(kappa)
            for n in (5, 8):
                law = orc.exact_joint_law(spec, n, 1)
                for v in orc.enumerate_complete(n):
                    assert mom.esf_pmf(n, kappa, v.a) == law.prob(v.a)

    def test_watterson_matches_assembly_formula(self):
        for kappa in (Fraction(1, 2), 2):
            spec = st.esf(kappa)
            for orders in ({1: 1}, {2: 1}, {1: 2}, {1: 1, 3: 1}):
                want = mom.factorial_moment_assembly(spec, 9, orders)
                got = mom.esf_moment(9, kappa, orders)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_watterson_boundary_m_equals_n(self):
        # m = n leaves the ratio C(kappa-1+0, 0)/C(kappa+n-1, n)
        n, kappa = 4, Fraction(3, 2)
        got = mom.esf_moment(n, kappa, {n: 1})
        rising = math.prod((kappa + t for t in range(n)), start=Fraction(1))
        want = math.factorial(n) / rising * (kappa / n)
        assert got == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("kappa", [Fraction(1, 2), 1, 2, 0.3], ids=str)
    def test_matches_rising_table_formula(self, kappa):
        # kappa_(n-m) n! / ((n-m)! kappa_(n)) off one table of exact rising
        # factorials, rounded once: the same rational, so the same float
        n = 40
        kap = Fraction(kappa)
        rising = [math.prod((kap + t for t in range(k)), start=Fraction(1))
                  for k in range(n + 1)]
        for j in range(1, n + 1):
            for orders in ({j: 1}, {1: 1, j: 1}):
                m = sum(i * r for i, r in orders.items())
                if m > n:
                    continue
                want = rising[n - m] * math.factorial(n) \
                    / (math.factorial(n - m) * rising[n])
                for i, r in orders.items():
                    want *= (kap / i) ** r
                assert mom.esf_moment(n, kappa, orders) == float(want)

    def test_float_kappa_path(self):
        a = mom.esf_pmf(6, 0.5, (0, 0, 0, 0, 0, 1))
        b = mom.esf_pmf(6, Fraction(1, 2), (0, 0, 0, 0, 0, 1))
        assert a == pytest.approx(float(b), rel=1e-12)


def _expected_theta_K(spec, n, theta):
    """E theta^{K_n} = p_theta(n) / p(n), a ratio of p_total values."""
    return float(Fraction(st.p_total(spec, n, theta))
                 / Fraction(st.p_total(spec, n, 1)))


class TestExpectedThetaK:
    def test_theta_one(self):
        assert _expected_theta_K(st.polynomials(2), 9, 1) == 1.0

    def test_permutation_example(self):
        # oracle: sum over the 6 permutations of 2^{#cycles} / 6 = 24/6
        assert _expected_theta_K(st.permutations(), 3, 2) == pytest.approx(4.0)

    def test_monotone_in_theta(self):
        spec = st.distinct_partitions()
        vals = [_expected_theta_K(spec, 8, t)
                for t in (Fraction(1, 2), 1, Fraction(3, 2), 2)]
        assert vals == sorted(vals)

    def test_oracle(self):
        for spec in (st.set_partitions(), st.integer_partitions()):
            for n in (5, 9):
                law = orc.exact_joint_law(spec, n, 1)
                want = float(law.expectation(lambda a: Fraction(2) ** sum(a)))
                assert _expected_theta_K(spec, n, 2) == pytest.approx(
                    want, rel=1e-12)


class TestSamplerAgreement:
    def test_monte_carlo_mean_matches_formula(self):
        from combstruct.sampler import RngState, sample_components
        import numpy as np
        perm = st.permutations()
        n = 12
        batch = sample_components(perm, n, TiltedParams(1, 1), 10 ** 5,
                                  RngState(2024))
        a_mat = np.array([v.a for v in batch.samples])
        for j in (1, 2, 3):
            want = mom.factorial_moment_single(perm, n, j, 1)
            mean = a_mat[:, j - 1].mean()
            se = a_mat[:, j - 1].std(ddof=1) / math.sqrt(len(batch.samples))
            assert abs(mean - want) <= 4 * se
