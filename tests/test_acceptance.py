"""Acceptance suite: one test per criterion, at the stated tolerance and
runtime budget, printing one pass/fail line each (run with -s to see them).

Ground truth is the big-rational enumeration oracle plus closed-form
constants; nothing here trusts the code path it is checking.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
from scipy.stats import chisquare

from combstruct import structures as st
from combstruct import sumdist as sd
from combstruct import tv_engine as tv
from combstruct import moments as mom
from combstruct import limits
from combstruct import oracle as orc
from combstruct.indep_process import TiltedParams, choose_x, z_law, refined_y_law
from combstruct.sampler import (RngState, sample_by_rejection,
                                sample_components)

GAMMA = limits.EULER_GAMMA


def report(idx, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {idx} {name}: {detail}"


def kind_trio():
    return ((st.permutations(), 1.0, 1.0),
            (st.integer_partitions(), 0.6, 0.4),
            (st.distinct_partitions(), 1.0, 1.0))


def all_builtins():
    return (st.permutations(), st.mappings(), st.set_partitions(),
            st.two_regular_graphs(), st.esf(2), st.esf(Fraction(1, 2)),
            st.integer_partitions(), st.polynomials(2), st.necklaces(3),
            st.distinct_partitions(), st.distinct_odd_partitions(),
            st.squarefree_polynomials(2))


def oracle_tv(spec, B, n, params, theta=1):
    law = orc.exact_joint_law(spec, n, theta)
    marg = orc.restrict_law(law, B)
    pmfs = {i: z_law(spec, i, params).pmf for i in B}
    return orc.tv_against_product(marg, B, pmfs, n)


def test_criterion_01_conditioning_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for spec, x1, x_halfx in kind_trio():
        for theta in (Fraction(1, 2), 1, 2):
            x = x_halfx if (spec.kind is st.Kind.MULTISET and theta == 2) else x1
            params = TiltedParams(x, theta)
            for n in range(1, 11):
                law = orc.exact_joint_law(spec, n, theta)
                laws = [z_law(spec, i, params) for i in range(1, n + 1)]
                pt = sd.prob_T_eq_n(spec, n, params)
                for v in orc.enumerate_complete(n):
                    pz = math.prod(laws[i].pmf(v.a[i]) for i in range(n))
                    worst = max(worst, abs(pz / pt - float(law.prob(v.a))))
    elapsed = time.perf_counter() - t0
    report(1, "conditioning identity", worst <= 1e-10 and elapsed < 10,
           f"max_abs_gap={worst:.3g}, runtime={elapsed:.2f}s")


def test_criterion_02_prob_t_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in all_builtins():
        for n in (50, 200):
            x1 = choose_x(spec, n, 1)
            for x in (x1, 0.9 * x1):
                params = TiltedParams(x, 1)
                rec = sd.prob_T_eq_n(spec, n, params, method="recursion")
                clo = sd.prob_T_eq_n(spec, n, params, method="closed_form")
                worst = max(worst, abs(rec - clo) / clo)
    elapsed = time.perf_counter() - t0
    report(2, "P(T_n=n) recursion vs closed form",
           worst <= 1e-9 and elapsed < 5,
           f"max_rel_gap={worst:.3g}, runtime={elapsed:.2f}s")


def test_criterion_03_tv_identity():
    t0 = time.perf_counter()
    worst = 0.0
    rng = random.Random(33)
    for spec, x, _ in kind_trio():
        params = TiltedParams(x, 1)
        for n in range(1, 7):
            for r in range(1, n + 1):
                for B in itertools.combinations(range(1, n + 1), r):
                    gap = abs(oracle_tv(spec, B, n, params)
                              - tv.tv_CB_ZB(spec, B, n, params).exact)
                    worst = max(worst, gap)
        for n in (8, 10):
            for _ in range(50):
                B = tuple(sorted(rng.sample(range(1, n + 1),
                                            rng.randint(1, n))))
                gap = abs(oracle_tv(spec, B, n, params)
                          - tv.tv_CB_ZB(spec, B, n, params).exact)
                worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    report(3, "exact TV identity vs oracle", worst <= 1e-10 and elapsed < 60,
           f"max_abs_gap={worst:.3g}, runtime={elapsed:.2f}s")


def test_criterion_04_refined_equality_chain():
    specs = (
        (st.from_m_list("multiset", [2, 1, 1, 1, 1, 1], name="m211111"), 0.5),
        (st.from_m_list("assembly", [1, 2, 1, 1, 1, 1], name="a121111"), 1.0),
    )
    worst = 0.0
    for spec, x in specs:
        params = TiltedParams(x, 1)
        for n in (5, 6):
            refined = orc.exact_refined_law(spec, n)
            for r in range(1, n + 1):
                for B in itertools.combinations(range(1, n + 1), r):
                    K = orc.refined_index_set(spec, B)
                    w = tuple(i for i, _ in K)
                    marg_d = orc.restrict_refined_law(refined, spec, n, B)
                    pmf_y = [refined_y_law(spec, i, params).pmf for i, _ in K]
                    body = covered = 0.0
                    for b in orc.vectors_bounded(K, w, n):
                        py = math.prod(pmf_y[t](b[t]) for t in range(len(K)))
                        body += abs(float(marg_d.prob(b)) - py)
                        covered += py
                    d_refined = 0.5 * body + 0.5 * max(0.0, 1 - covered)
                    d_unref = oracle_tv(spec, B, n, params)
                    d_onedim = tv.tv_CB_ZB(spec, B, n, params).exact
                    worst = max(worst, abs(d_refined - d_unref),
                                abs(d_unref - d_onedim))
    report(4, "refined TV equality chain", worst <= 1e-10,
           f"max_abs_gap={worst:.3g}")


def conditioned_oracle_tv(spec, n, params, theta, cond_sizes, B):
    law = orc.exact_joint_law(spec, n, theta)
    keep = {a: p for a, p in law.entries.items()
            if all(a[i - 1] == 0 for i in cond_sizes)}
    q = sum(keep.values())
    cond_law = orc.ExactLaw(entries={a: p / q for a, p in keep.items()})
    marg = orc.restrict_law(cond_law, B)
    pmfs = {}
    for i in B:
        if i in cond_sizes:
            pmfs[i] = lambda k: 1.0 if k == 0 else 0.0
        else:
            pmfs[i] = z_law(spec, i, params).pmf
    return orc.tv_against_product(marg, B, pmfs, n), float(q)


def test_criterion_05_conditioned_bounds():
    worst_violation = 0.0
    cases = ((st.permutations(), (1,)), (st.esf(Fraction(1, 2)), (1, 2)))
    for spec, cond in cases:
        params = TiltedParams(1.0, 1)
        for n in range(4, 11):
            B = tuple(range(1, min(n, 5) + 1))
            d_star, q = conditioned_oracle_tv(spec, n, params, 1, cond, B)
            p = math.prod(z_law(spec, i, params).pmf(0) for i in cond)
            d_B = tv.tv_CB_ZB(spec, B, n, params).exact
            d_A = tv.tv_CB_ZB(spec, cond, n, params).exact
            b0, b1, b2 = tv.tv_conditioned_bounds(p, q, d_A, d_B)
            worst_violation = max(worst_violation, d_star - b0, b0 - b1,
                                  b1 - b2)
    # the worked 2-regular bound: b1 from (p, d_A, d_B) = (e^{-3/4}, 4/n, 2b/n)
    reproduced = True
    for n in (50, 100):
        for b in (3, 7):
            _, b1, _ = tv.tv_conditioned_bounds(math.exp(-0.75),
                                                math.exp(-0.75), 4 / n,
                                                2 * b / n)
            want = math.exp(0.75) * 2 * (b + 1) / n
            if abs(b1 / want - 1) > 1e-14:
                reproduced = False
    ok = worst_violation <= 1e-12 and reproduced
    report(5, "conditioned-structure bounds",
           ok, f"worst_violation={worst_violation:.3g}, "
               f"worked_bound_reproduced={reproduced}")


def test_criterion_06_moments():
    worst = 0.0
    # joint assemblies (Lemma-style formula)
    orders_list = ({1: 1}, {2: 1}, {1: 2}, {1: 1, 2: 1}, {3: 2}, {2: 3})
    for spec in (st.permutations(), st.set_partitions(), st.esf(2)):
        for theta in (Fraction(1, 2), 1, 2):
            for n in (6, 10):
                law = orc.exact_joint_law(spec, n, theta)
                for orders in orders_list:
                    want = float(law.expectation(
                        lambda a: math.prod(
                            math.prod(a[j - 1] - t for t in range(r))
                            for j, r in orders.items())))
                    got = mom.factorial_moment_assembly(spec, n, orders,
                                                        theta=theta)
                    worst = max(worst, abs(got - want))
    # single-index multisets and selections
    for spec in (st.integer_partitions(), st.polynomials(2),
                 st.distinct_partitions(), st.squarefree_polynomials(2)):
        for theta in (Fraction(1, 2), 1, 2):
            for n in (6, 10):
                law = orc.exact_joint_law(spec, n, theta)
                for j in (1, 2, 3):
                    for r in (1, 2, 3):
                        want = float(law.expectation(
                            lambda a: math.prod(a[j - 1] - t
                                                for t in range(r))))
                        got = mom.factorial_moment_single(spec, n, j, r,
                                                          theta=theta)
                        worst = max(worst, abs(got - want))
    # Watterson closed form
    for kappa in (Fraction(1, 2), 2):
        spec = st.esf(kappa)
        for n in (6, 10):
            law = orc.exact_joint_law(spec, n, 1)
            for orders in orders_list:
                want = float(law.expectation(
                    lambda a: math.prod(
                        math.prod(a[j - 1] - t for t in range(r))
                        for j, r in orders.items())))
                worst = max(worst, abs(mom.esf_moment(n, kappa, orders) - want))
    # exact rising-factorial normalizing constants
    rising_ok = True
    for n in range(1, 21):
        for theta in (Fraction(1, 2), 1, 2, 5):
            want = math.prod((Fraction(theta) + t for t in range(n)),
                             start=Fraction(1))
            if st.p_total(st.permutations(), n, theta) != want:
                rising_ok = False
    ok = worst <= 1e-10 and rising_ok
    report(6, "moment formulas vs oracle", ok,
           f"max_abs_gap={worst:.3g}, esf_norm_exact={rising_ok}")


def test_criterion_07_local_limit():
    t0 = time.perf_counter()
    n = 2000
    h_n = sum(1.0 / i for i in range(1, n + 1))
    val_perm = n * math.exp(-h_n)
    # engine agreement with the closed form at this scale
    engine = sd.prob_T_eq_n(st.permutations(), n, TiltedParams(1.0, 1))
    gap_engine = abs(engine - math.exp(-h_n)) / math.exp(-h_n)
    rel_perm = abs(val_perm / math.exp(-GAMMA) - 1)
    npoly = 500
    val_poly = npoly * sd.prob_T_eq_n(st.polynomials(2), npoly,
                                      TiltedParams(0.5, 1))
    rel_poly = abs(val_poly / math.exp(-GAMMA) - 1)
    elapsed = time.perf_counter() - t0
    ok = rel_perm < 0.02 and rel_poly < 0.10 and gap_engine < 1e-9 \
        and elapsed < 5
    report(7, "logarithmic local limit", ok,
           f"perm_rel={rel_perm:.4f}, poly_rel={rel_poly:.4f}, "
           f"engine_gap={gap_engine:.2g}, runtime={elapsed:.2f}s")


def _mp_psi(kappa, c, s):
    """psi_c(s) = exp(-kappa int_0^1 (1 - e^{-s u}) e^{-c u} du / u), the
    integral by mpmath quadrature (20 digits)."""
    with mpmath.workdps(20):
        return mpmath.exp(-kappa * mpmath.quad(
            lambda u: -mpmath.expm1(-s * u) * mpmath.exp(-c * u) / u, [0, 1]))


def test_criterion_08_limit_law_functional_equation():
    # psi_gap holds by construction of the closed forms; psi_ref holds each
    # side to quadrature
    worst_psi = 0.0
    worst_ref = 0.0
    worst_d1 = 0.0
    worst_d2 = 0.0
    h = 1e-5
    for kappa in (0.5, 1.0, 2.0):
        for c in (0.0, kappa - 1.0):
            law = limits.LimitLaw(kappa, c)
            for s in (0.1, 1.0, 5.0):
                lhs = limits.laplace_psi(law, s) * limits.psi0(kappa, c)
                worst_psi = max(worst_psi, abs(lhs - limits.psi0(kappa, c + s)))
                for got, want in (
                        (limits.laplace_psi(law, s), _mp_psi(kappa, c, s)),
                        (limits.psi0(kappa, c + s), _mp_psi(kappa, 0, c + s))):
                    worst_ref = max(worst_ref, float(abs(got - want) / want))
        law0 = limits.LimitLaw(kappa, 0.0)
        d = (limits.limit_density(law0, 1.0)
             - limits.limit_density(law0, 1.0 - 2 * h)) / (2 * h)
        worst_d1 = max(worst_d1,
                       abs(d / limits.limit_density(law0, 1.0 - h)
                           - (kappa - 1)))
        law_c = limits.LimitLaw(kappa, kappa - 1.0)
        d = (limits.limit_density(law_c, 1.0)
             - limits.limit_density(law_c, 1.0 - 2 * h)) / (2 * h)
        worst_d2 = max(worst_d2, abs(d / limits.limit_density(law_c, 1.0 - h)))
    ok = (worst_psi <= 1e-8 and worst_ref <= 1e-12 and worst_d1 <= 1e-4
          and worst_d2 <= 1e-4)
    report(8, "limit-law functional equation", ok,
           f"psi_gap={worst_psi:.3g}, psi_ref={worst_ref:.3g}, "
           f"dlog_gap={worst_d1:.3g}, "
           f"tilted_deriv={worst_d2:.3g}")


def pooled_chi_square(samples, law):
    n_obs = len(samples)
    counts = {}
    for v in samples:
        counts[v.a] = counts.get(v.a, 0) + 1
    obs, exp = [], []
    pool_o = pool_e = 0.0
    for a, pr in sorted(law.entries.items(), key=lambda kv: -kv[1]):
        e = float(pr) * n_obs
        o = counts.get(a, 0)
        if e < 5:
            pool_o, pool_e = pool_o + o, pool_e + e
        else:
            obs.append(o)
            exp.append(e)
    if pool_e > 0:
        obs.append(pool_o)
        exp.append(pool_e)
    exp = np.array(exp) * (sum(obs) / sum(exp))
    return chisquare(np.array(obs), exp).pvalue


def test_criterion_09_sampler_exactness():
    # oracle chi-square on both routes; acceptance z-score on rejection,
    # the only route that rejects
    n = 6
    routes = {"table": sample_components, "rejection": sample_by_rejection}
    worst_p = dict.fromkeys(routes, 1.0)
    worst_se = 0.0
    # polynomials(2) and necklaces(2) add multisets whose m_i grow like 2^i
    cases = kind_trio() + ((st.polynomials(2), 0.4, None),
                           (st.necklaces(2), 0.4, None))
    for seed, (spec, x, _) in zip((101, 102, 103, 104, 105), cases):
        params = TiltedParams(x, 1)
        law = orc.exact_joint_law(spec, n, 1)
        for route, sample in routes.items():
            batch = sample(spec, n, params, 10 ** 5, RngState(seed))
            worst_p[route] = min(worst_p[route],
                                 pooled_chi_square(batch.samples, law))
        p = batch.acceptance_exact
        se = math.sqrt(p * (1 - p) / batch.trials)
        worst_se = max(worst_se, abs(batch.accepted / batch.trials - p) / se)
    ok = min(worst_p.values()) > 1e-3 and worst_se <= 4.0
    report(9, "sampler exactness", ok,
           f"min_pvalue table={worst_p['table']:.4g} "
           f"rejection={worst_p['rejection']:.4g}, "
           f"rejection acceptance_z={worst_se:.2f}")


def test_criterion_10_heuristic_trend():
    t0 = time.perf_counter()
    spec = st.esf(2)
    params = TiltedParams(1.0, 1)
    B = (1, 2)
    ratios = []
    for n in (200, 400, 800):
        rep = tv.tv_CB_ZB(spec, B, n, params, with_heuristic=True)
        ratios.append(n * rep.exact / (n * rep.heuristic))
    in_envelope = all(0.5 <= r <= 2.0 for r in ratios)
    drift = all(abs(ratios[i + 1] - 1) <= abs(ratios[i] - 1)
                for i in range(len(ratios) - 1))
    elapsed = time.perf_counter() - t0
    ok = in_envelope and elapsed < 30
    report(10, "heuristic factor-2 envelope", ok,
           f"ratios={[round(r, 4) for r in ratios]}, monotone_drift={drift}, "
           f"runtime={elapsed:.2f}s")


def test_criterion_11_permutation_bound():
    n = 20
    params = TiltedParams(1.0, 1)
    ok = True
    vals = []
    for b in (2, 3, 4):
        d = tv.tv_CB_ZB(st.permutations(), range(1, b + 1), n, params).exact
        f = tv.permutation_tail_bound(n / b)
        vals.append((b, d, f))
        ok = ok and d <= f
    report(11, "permutation tail bound", ok,
           "; ".join(f"b={b}: d={d:.3g} <= F={f:.3g}" for b, d, f in vals))
