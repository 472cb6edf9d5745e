"""Oracle cross-check suite behind the `combstruct verify` command.

Each check exercises one of the package's floating-point engines against
exact enumeration, an exact closed form or an independent quadrature at
small n and reports pass/fail with the worst observed gap.  The CLI exits
nonzero when any check fails.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import structures as st
from . import sumdist, tv_engine, limits
from . import moments as mom
from . import oracle as orc
from .indep_process import TiltedParams, refined_y_law, z_pmf_rows

Result = tuple[str, bool, str]


def _trio():
    return (st.permutations(), st.integer_partitions(), st.distinct_partitions())


def _valid_x(spec, theta: float) -> float:
    if spec.kind is st.Kind.MULTISET:
        return 0.9 * min(1.0, 1.0 / theta)
    return 1.0


def check_counting() -> Result:
    worst = "ok"
    for spec in (*_trio(), st.set_partitions(), st.polynomials(2)):
        for n in range(1, 9):
            total = sum(st.count_N(spec, v) for v in orc.enumerate_complete(n))
            if total != st.p_total(spec, n, 1):
                return ("counting_vs_ptotal", False,
                        f"{spec.name} n={n}: {total} != {st.p_total(spec, n, 1)}")
    return ("counting_vs_ptotal", True, worst)


def check_conditioning() -> Result:
    worst = 0.0
    for spec in _trio():
        for theta in (Fraction(1, 2), 1, 2):
            x = _valid_x(spec, float(theta))
            params = TiltedParams(x=x, theta=theta)
            n = 7
            law = orc.exact_joint_law(spec, n, theta)
            pks = z_pmf_rows(spec, range(1, n + 1), n // np.arange(1, n + 1), params)
            pt = sumdist.prob_T_eq_n(spec, n, params)
            for v in orc.enumerate_complete(n):
                pz = math.prod(pks[i][v.a[i]] for i in range(n))
                worst = max(worst, abs(pz / pt - float(law.prob(v.a))))
    return ("conditioning_identity", worst <= 1e-10, f"max_gap={worst:.3g}")


def check_recursion_vs_convolution() -> Result:
    rng = random.Random(20240817)
    worst = 0.0
    for spec in _trio():
        n = 40
        x = _valid_x(spec, 1.0)
        params = TiltedParams(x=x, theta=1)
        for _ in range(3):
            B = sorted(rng.sample(range(1, n + 1), 11))
            # the recursion itself, certified for the selection: its "auto"
            # route takes the convolution on these small B
            pr = sumdist._assemble(*sumdist._pmf_by_recursion(
                spec, sumdist.index_set(B), n, params, certify=True))
            pc = sumdist.weighted_sum_pmf(spec, B, n, params, method="convolution")
            worst = max(worst, float(np.max(np.abs(pr.p - pc.p))))
    return ("recursion_vs_convolution", worst <= 1e-10, f"max_gap={worst:.3g}")


def check_prob_t_identity() -> Result:
    worst = 0.0
    for spec in (*_trio(), st.set_partitions(), st.mappings()):
        n = 50
        from .indep_process import choose_x
        x = choose_x(spec, n, 1)
        params = TiltedParams(x=x, theta=1)
        rec = sumdist.prob_T_eq_n(spec, n, params, method="recursion")
        clo = sumdist.prob_T_eq_n(spec, n, params, method="closed_form")
        worst = max(worst, abs(rec - clo) / clo)
    return ("prob_t_identity", worst <= 1e-9, f"max_rel={worst:.3g}")


def check_tv_identity() -> Result:
    rng = random.Random(7)
    worst = 0.0
    for spec in _trio():
        params = TiltedParams(x=_valid_x(spec, 1.0), theta=1)
        for n in (5, 6):
            law = orc.exact_joint_law(spec, n, 1)
            for _ in range(6):
                B = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
                marg = orc.restrict_law(law, B)
                rows = z_pmf_rows(spec, B, n // np.array(B), params)
                pmfs = {i: row.__getitem__ for i, row in zip(B, rows)}
                d_oracle = orc.tv_against_product(marg, B, pmfs, n)
                d_engine = tv_engine.tv_CB_ZB(spec, B, n, params).exact
                worst = max(worst, abs(d_oracle - d_engine))
    return ("tv_identity", worst <= 1e-10, f"max_gap={worst:.3g}")


def check_moments() -> Result:
    worst = 0.0
    for spec in _trio():
        n = 8
        law = orc.exact_joint_law(spec, n, 1)
        for j in (1, 2, 3):
            for r in (1, 2):
                want = float(law.expectation(
                    lambda a: math.prod(a[j - 1] - t for t in range(r))))
                got = mom.factorial_moment_single(spec, n, j, r, theta=1)
                worst = max(worst, abs(want - got))
    return ("moments_vs_oracle", worst <= 1e-10, f"max_gap={worst:.3g}")


def check_esf() -> Result:
    worst = 0.0
    n = 7
    for kappa in (Fraction(1, 2), 2):
        spec = st.esf(kappa)
        law = orc.exact_joint_law(spec, n, 1)
        for v in orc.enumerate_complete(n):
            worst = max(worst, abs(float(mom.esf_pmf(n, kappa, v.a))
                                   - float(law.prob(v.a))))
        for j in (1, 2):
            want = float(law.expectation(lambda a: a[j - 1]))
            worst = max(worst, abs(want - mom.esf_moment(n, kappa, {j: 1})))
    return ("esf_closed_forms", worst <= 1e-10, f"max_gap={worst:.3g}")


_SIMPSON_INTERVALS = 2000


def _simpson_log_psi(s: float, c: float) -> float:
    """int_0^1 (1 - e^{-s u}) e^{-c u} du / u by the composite Simpson rule
    on _SIMPSON_INTERVALS intervals, with the integrand's limit s at u = 0."""
    u = np.linspace(0.0, 1.0, _SIMPSON_INTERVALS + 1)
    f = np.empty_like(u)
    f[0] = s
    f[1:] = -np.expm1(-s * u[1:]) * np.exp(-c * u[1:]) / u[1:]
    return float(f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                 + 2.0 * f[2:-1:2].sum()) / (3.0 * _SIMPSON_INTERVALS)


def check_psi_quadrature() -> Result:
    """laplace_psi and psi0 (closed forms in Ein) against an independent
    Simpson sum of the Laplace exponent's integral."""
    worst = 0.0
    for kappa in (0.5, 1.0, 2.0):
        for c in (0.0, kappa - 1.0):
            for s in (0.1, 1.0, 5.0):
                pairs = ((limits.laplace_psi(limits.LimitLaw(kappa, c), s),
                          _simpson_log_psi(s, c)),
                         (limits.psi0(kappa, c + s),
                          _simpson_log_psi(c + s, 0.0)))
                for got, integral in pairs:
                    worst = max(worst, abs(got - math.exp(-kappa * integral)))
    return ("psi_vs_simpson", worst <= 1e-10, f"max_gap={worst:.3g}")


def check_refined_convolution() -> Result:
    worst = 0.0
    for kind, x in (("assembly", 0.9), ("multiset", 0.5), ("selection", 1.0)):
        for i, m_i in ((2, 3), (5, 4)):
            spec = st.from_m_list(kind, [0] * (i - 1) + [m_i])
            params = TiltedParams(x, 1)
            z = z_pmf_rows(spec, [i], 16, params)[0]
            yv = refined_y_law(spec, i, params).pmf_array(16)
            conv = np.array([1.0])
            for _ in range(m_i):
                conv = np.convolve(conv, yv)[:17]
            worst = max(worst, float(np.max(np.abs(conv - z))))
    return ("refined_convolution_identity", worst <= 1e-12,
            f"max_gap={worst:.3g}")


def check_x_invariance() -> Result:
    worst = 0.0
    for spec, (x1, x2) in ((st.permutations(), (1.0, 0.75)),
                           (st.integer_partitions(), (0.55, 0.7)),
                           (st.distinct_partitions(), (1.0, 0.8))):
        c1 = sumdist.conditioned_R_pmf(spec, [2, 3], 20, TiltedParams(x1, 1))
        c2 = sumdist.conditioned_R_pmf(spec, [2, 3], 20, TiltedParams(x2, 1))
        worst = max(worst, float(np.max(np.abs(c1.p - c2.p))))
    return ("conditional_law_x_invariance", worst <= 1e-9, f"max_gap={worst:.3g}")


def check_distance_dominance() -> Result:
    # d_W >= d_TV on integer laws
    rng = random.Random(12)
    for _ in range(10):
        n = 6
        pa = np.array([rng.random() for _ in range(n + 1)])
        pb = np.array([rng.random() for _ in range(n + 1)])
        p = sumdist.PmfVector(p=pa / pa.sum(), tail=0.0)
        q = sumdist.PmfVector(p=pb / pb.sum(), tail=0.0)
        if tv_engine.wasserstein_discrete(p, q) < \
                tv_engine.tv_discrete(p, q).upper - 1e-12:
            return ("wasserstein_dominates_tv", False, "violation found")
    return ("wasserstein_dominates_tv", True, "ok")


CHECKS = [check_counting, check_conditioning, check_recursion_vs_convolution,
          check_prob_t_identity, check_tv_identity, check_moments, check_esf,
          check_psi_quadrature, check_refined_convolution, check_x_invariance,
          check_distance_dominance]


def run_all() -> list[Result]:
    return [fn() for fn in CHECKS]
