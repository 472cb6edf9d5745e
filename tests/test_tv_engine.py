"""Total variation identities against the enumeration oracle, conditioned
bounds, the local-limit heuristic, and the overpowering bound."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

from combstruct import structures as st
from combstruct import sumdist as sd
from combstruct import tv_engine as tv
from combstruct import oracle as orc
from combstruct.errors import ParameterDomainError
from combstruct.indep_process import TiltedParams, refined_y_law, z_law
from combstruct.sampler import RngState, sample_components

PERM = st.permutations()


def poisson_vec(lam, n):
    return np.array([math.exp(-lam) * lam ** k / math.factorial(k)
                     for k in range(n + 1)])


def pmf_vec(values, n):
    p = np.zeros(n + 1)
    for k, v in values.items():
        p[k] = v
    return sd.PmfVector(p=p, tail=max(0.0, 1 - p.sum()))


class TestTvDiscrete:
    def test_identical(self):
        p = pmf_vec({0: 0.5, 2: 0.5}, 4)
        b = tv.tv_discrete(p, p)
        assert b.lower == 0.0 and b.upper == 0.0

    def test_point_mass_vs_poisson(self):
        n = 40
        q = sd.PmfVector(p=poisson_vec(1.0, n), tail=0.0)
        p = pmf_vec({1: 1.0}, n)
        b = tv.tv_discrete(p, q)
        assert b.mid == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_disjoint_supports(self):
        p = pmf_vec({0: 1.0}, 3)
        q = pmf_vec({1: 1.0}, 3)
        assert tv.tv_discrete(p, q).lower == 1.0

    def test_tail_bracket(self):
        p = sd.PmfVector(p=np.array([0.7]), tail=0.3)
        q = sd.PmfVector(p=np.array([0.9]), tail=0.1)
        b = tv.tv_discrete(p, q)
        assert b.lower == pytest.approx(0.2)
        assert b.upper == pytest.approx(0.3)

    @settings(max_examples=40, deadline=None)
    @given(hs.lists(hs.floats(min_value=0.0, max_value=1.0), min_size=2,
                    max_size=8),
           hs.lists(hs.floats(min_value=0.0, max_value=1.0), min_size=2,
                    max_size=8))
    # disjoint supports: the body sum rounds to 1 + 2^-52
    @example(wa=[0.0, 0.7898852568494756, 0.5619863822397461, 0.125, 0.0625],
             wb=[1.0, 0.0])
    def test_range_and_symmetry(self, wa, wb):
        if sum(wa) == 0 or sum(wb) == 0:
            return
        n = max(len(wa), len(wb)) - 1
        pa = np.zeros(n + 1)
        pa[: len(wa)] = np.array(wa) / sum(wa)
        pb = np.zeros(n + 1)
        pb[: len(wb)] = np.array(wb) / sum(wb)
        p = sd.PmfVector(p=pa, tail=max(0.0, 1 - pa.sum()))
        q = sd.PmfVector(p=pb, tail=max(0.0, 1 - pb.sum()))
        b1, b2 = tv.tv_discrete(p, q), tv.tv_discrete(q, p)
        assert 0 <= b1.lower <= b1.upper <= 1 + 1e-12
        assert b1.lower == pytest.approx(b2.lower, abs=1e-12)


class TestWasserstein:
    def test_identical(self):
        p = pmf_vec({0: 0.25, 3: 0.75}, 5)
        assert tv.wasserstein_discrete(p, p) == 0.0

    def test_bernoulli_vs_poisson(self):
        p_par = 0.3
        n = 40
        bern = pmf_vec({0: 1 - p_par, 1: p_par}, n)
        pois = sd.PmfVector(p=poisson_vec(p_par, n), tail=0.0)
        want = 2 * (p_par - 1 + math.exp(-p_par))
        assert tv.wasserstein_discrete(bern, pois) == pytest.approx(want,
                                                                    rel=1e-10)

    def test_stochastic_dominance_mean_difference(self):
        n = 30
        a = sd.PmfVector(p=poisson_vec(2.0, n), tail=0.0)
        b = sd.PmfVector(p=poisson_vec(1.0, n), tail=0.0)
        assert tv.wasserstein_discrete(a, b) == pytest.approx(
            a.mean() - b.mean(), abs=1e-8)

    def test_dominates_tv(self):
        rng = random.Random(3)
        for _ in range(20):
            n = 6
            pa = np.array([rng.random() for _ in range(n + 1)])
            pb = np.array([rng.random() for _ in range(n + 1)])
            p = sd.PmfVector(p=pa / pa.sum(), tail=0.0)
            q = sd.PmfVector(p=pb / pb.sum(), tail=0.0)
            assert tv.wasserstein_discrete(p, q) >= tv.tv_discrete(p, q).upper - 1e-12


def oracle_tv(spec, B, n, params, theta=1):
    law = orc.exact_joint_law(spec, n, theta)
    marg = orc.restrict_law(law, B)
    pmfs = {i: z_law(spec, i, params).pmf for i in B}
    return orc.tv_against_product(marg, B, pmfs, n)


class TestTvCBZB:
    def test_smallest_case(self):
        rep = tv.tv_CB_ZB(PERM, [1], 1, TiltedParams(1, 1))
        assert rep.exact == pytest.approx(1 - math.exp(-1), rel=1e-12)

    def test_empty_B(self):
        rep = tv.tv_CB_ZB(PERM, [], 5, TiltedParams(1, 1))
        assert rep.exact == 0.0

    def test_single_index_vs_marginal_poisson(self):
        # d_TV(C_1(10), Po(1)) straight from the exact marginal law
        n = 10
        law = orc.exact_joint_law(PERM, n, 1)
        marg = orc.exact_functional_law(law, lambda a: a[0])
        pois = [math.exp(-1) / math.factorial(k) for k in range(n + 1)]
        d_direct = 0.5 * sum(abs(float(marg.prob(k)) - pois[k])
                             for k in range(n + 1))
        d_direct += 0.5 * (1 - sum(pois))
        rep = tv.tv_CB_ZB(PERM, [1], n, TiltedParams(1, 1))
        assert rep.exact == pytest.approx(d_direct, abs=1e-12)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 2])
    def test_identity_against_oracle_all_kinds(self, theta):
        specs = ((PERM, 1.0), (st.integer_partitions(), 0.4),
                 (st.distinct_partitions(), 1.0))
        rng = random.Random(int(theta * 4))
        for spec, x in specs:
            params = TiltedParams(x, theta)
            for n, draws in ((5, 8), (6, 8), (7, 10), (10, 10)):
                for _ in range(draws):
                    B = tuple(sorted(rng.sample(range(1, n + 1),
                                                rng.randint(1, n))))
                    want = oracle_tv(spec, B, n, params, theta)
                    got = tv.tv_CB_ZB(spec, B, n, params).exact
                    assert abs(want - got) < 1e-10, (spec.name, B, n)

    def test_report_ordering_invariant(self):
        rep = tv.tv_CB_ZB(PERM, [1, 2], 8, TiltedParams(1, 1))
        assert 0 <= rep.lower <= rep.exact <= 1


class TestFunctionalContraction:
    def test_random_functionals(self):
        n = 6
        law = orc.exact_joint_law(PERM, n, 1)
        zlaw_entries = {}
        # discretized independent law on the complete-support box
        params = TiltedParams(1, 1)
        pmfs = [z_law(PERM, i, params) for i in range(1, n + 1)]
        rng = random.Random(11)
        keys = list(law.entries)
        for _ in range(10):
            img = {a: rng.randint(0, 3) for a in keys}
            h = lambda a: img[a]
            push_c = orc.exact_functional_law(law, h)
            # exact TV needs both sides exact; compare pushforward TVs of two
            # exact laws instead: theta = 1 vs theta = 2 combinatorial laws
            law2 = orc.exact_joint_law(PERM, n, 2)
            d_full = orc.exact_tv(law, law2)
            d_push = orc.exact_tv(push_c, orc.exact_functional_law(law2, h))
            assert d_push <= d_full


class TestRefinedChain:
    @pytest.mark.parametrize("spec,x", [
        (st.from_m_list("multiset", [2, 1, 1, 1, 1, 1], name="m211111"), 0.5),
        (st.from_m_list("assembly", [1, 2, 1, 1, 1, 1], name="a121111"), 1.0),
    ])
    def test_equality_chain(self, spec, x):
        # d(D_B*, Y_B*) = d(C_B, Z_B) = d((R_B | T=n), R_B) at tiny scale
        params = TiltedParams(x, 1)
        for n in (5, 6):
            refined = orc.exact_refined_law(spec, n)
            law = orc.exact_joint_law(spec, n)
            for B in ((1,), (2,), (1, 2), (2, 3), tuple(range(1, n + 1))):
                # refined side
                K = orc.refined_index_set(spec, B)
                w = tuple(i for i, _ in K)
                marg_d = orc.restrict_refined_law(refined, spec, n, B)
                y_pmfs = {}
                for idx, (i, j) in enumerate(K):
                    y_pmfs[idx] = refined_y_law(spec, i, params).pmf
                body, covered = 0.0, 0.0
                for b in orc.vectors_bounded(K, w, n):
                    py = 1.0
                    for idx in range(len(K)):
                        py *= y_pmfs[idx](b[idx])
                    body += abs(float(marg_d.prob(b)) - py)
                    covered += py
                d_refined = 0.5 * body + 0.5 * max(0.0, 1 - covered)
                # unrefined side
                d_unref = oracle_tv(spec, B, n, params)
                # one-dimensional side
                rep = tv.tv_CB_ZB(spec, B, n, params)
                assert abs(d_refined - d_unref) < 1e-10
                assert abs(d_unref - rep.exact) < 1e-10


class TestConditionedBounds:
    def test_degenerate(self):
        b0, b1, b2 = tv.tv_conditioned_bounds(0.5, 0.5, 0.1, 0.0)
        assert b0 == 0.0 and b1 == pytest.approx(0.1) and b2 == 0.0

    def test_two_regular_worked_bound(self):
        n, b = 100, 7
        p = math.exp(-3 / 4)
        _, b1, _ = tv.tv_conditioned_bounds(p, p, 4 / n, 2 * b / n)
        assert b1 == pytest.approx(math.exp(3 / 4) * 2 * (b + 1) / n, rel=1e-12)

    def test_ordering_when_hypotheses_hold(self):
        rng = random.Random(5)
        for _ in range(50):
            p = rng.uniform(0.05, 1.0)
            d_A = rng.uniform(0, 0.5)
            d_B = rng.uniform(d_A, 0.6)
            q = p + rng.uniform(-d_A, d_A)
            if q <= 0:
                continue
            b0, b1, b2 = tv.tv_conditioned_bounds(p, q, d_A, d_B)
            assert b0 <= b1 + 1e-12 <= b2 + 1e-12

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            tv.tv_conditioned_bounds(0.0, 0.5, 0.1, 0.1)

    def conditioned_tv_exact(self, spec, n, params, theta, cond_sizes, B):
        """Oracle d_TV between (C_B | C_i = 0 for i in A) and (Z_B | same)."""
        law = orc.exact_joint_law(spec, n, theta)
        keep = {a: p for a, p in law.entries.items()
                if all(a[i - 1] == 0 for i in cond_sizes)}
        q = sum(keep.values())
        cond_law = orc.ExactLaw(entries={a: p / q for a, p in keep.items()},
                                n=n, theta=theta)
        marg = orc.restrict_law(cond_law, B)
        pmfs = {}
        for i in B:
            base = z_law(spec, i, params).pmf
            if i in cond_sizes:
                pmfs[i] = lambda k: 1.0 if k == 0 else 0.0
            else:
                pmfs[i] = base
        return orc.tv_against_product(marg, B, pmfs, n), float(q)

    @pytest.mark.parametrize("spec,theta,cond", [
        (PERM, 1, (1,)),                              # derangements
        (st.esf(Fraction(1, 2)), 1, (1, 2)),          # 2-regular style
        (st.set_partitions(), 2, (1,)),
        (st.distinct_partitions(), 1, (1,)),
        (st.polynomials(2), 1, (1,)),
    ])
    def test_bound_chain_on_conditioned_structures(self, spec, theta, cond):
        x = 0.45 if spec.kind is st.Kind.MULTISET else 1.0
        params = TiltedParams(x, theta)
        for n in (6, 8):
            B = tuple(range(1, min(n, 5) + 1))
            d_star, q = self.conditioned_tv_exact(spec, n, params, theta,
                                                  cond, B)
            p = math.prod(z_law(spec, i, params).pmf(0) for i in cond)
            d_B = tv.tv_CB_ZB(spec, B, n, params).exact
            d_A = tv.tv_CB_ZB(spec, cond, n, params).exact
            b0, b1, b2 = tv.tv_conditioned_bounds(p, q, d_A, d_B)
            assert d_star <= b0 + 1e-12
            assert b0 <= b1 + 1e-12 <= b2 + 1e-12


class TestHeuristic:
    def test_kappa_one_vanishes(self):
        assert tv.tv_heuristic(PERM, [1, 2], 50, TiltedParams(1, 1)) == 0.0

    def test_empty_B(self):
        assert tv.tv_heuristic(st.esf(2), [], 50, TiltedParams(1, 1)) == 0.0

    def test_esf2_single_index_formula(self):
        # (1/2) E|Z_1 - 2| / n with Z_1 ~ Poisson(2)
        n = 300
        got = tv.tv_heuristic(st.esf(2), [1], n, TiltedParams(1, 1))
        mad = sum(abs(k - 2) * math.exp(-2) * 2 ** k / math.factorial(k)
                  for k in range(80))
        assert got == pytest.approx(0.5 * mad / n, rel=1e-9)

    def test_missing_meta(self):
        with pytest.raises(ParameterDomainError):
            tv.tv_heuristic(st.set_partitions(), [1], 30, TiltedParams(1, 1))

    def test_report_builds_each_pmf_once(self, monkeypatch):
        # tv_CB_ZB hands its R_B pmf to the heuristic: one pmf for B, one
        # for the complement (both built in sumdist.conditioned_block)
        spec, B, n, params = st.esf(2), [1, 3], 200, TiltedParams(1, 1)
        calls = []
        orig = sd.weighted_sum_pmf

        def spy(*args, **kwargs):
            calls.append(args[1])
            return orig(*args, **kwargs)

        monkeypatch.setattr(tv, "weighted_sum_pmf", spy)
        monkeypatch.setattr(sd, "weighted_sum_pmf", spy)
        rep = tv.tv_CB_ZB(spec, B, n, params, with_heuristic=True)
        assert len(calls) == 2
        monkeypatch.undo()
        assert rep.heuristic == tv.tv_heuristic(spec, B, n, params)


class TestOverpower:
    def test_trivial_functional(self):
        pt = sd.prob_T_eq_n(PERM, 6, TiltedParams(1, 1))
        assert tv.overpower_bound(1.0, pt) >= 1.0

    def test_derangement_bound(self):
        n = 5
        law = orc.exact_joint_law(PERM, n, 1)
        p_c1_zero = float(sum(p for a, p in law.entries.items() if a[0] == 0))
        assert p_c1_zero == pytest.approx(11 / 30, abs=1e-15)
        pt = sd.prob_T_eq_n(PERM, n, TiltedParams(1, 1))
        bound = tv.overpower_bound(math.exp(-1), pt)
        assert p_c1_zero <= bound

    def test_set_partition_monte_carlo(self):
        spec = st.set_partitions()
        n = 30
        from combstruct.indep_process import solve_xex
        params = TiltedParams(solve_xex(n), 1)
        pt = sd.prob_T_eq_n(spec, n, params)
        lam1 = z_law(spec, 1, params).lam
        bound = tv.overpower_bound(math.exp(-lam1), pt)
        batch = sample_components(spec, n, params, 4000, RngState(99))
        freq = sum(1 for v in batch.samples if v.a[0] == 0) / len(batch.samples)
        se = math.sqrt(max(freq * (1 - freq), 1e-9) / len(batch.samples))
        assert freq <= bound + 4 * se

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            tv.overpower_bound(1.0, 0.0)


class TestPermutationTailBound:
    def test_values_and_monotone_content(self):
        # F at x = 10 is small; the proven bound d_b(n) <= F(n/b)
        n = 20
        for b in (2, 3, 4):
            d = tv.tv_CB_ZB(PERM, range(1, b + 1), n, TiltedParams(1, 1)).exact
            assert d <= tv.permutation_tail_bound(n / b)
