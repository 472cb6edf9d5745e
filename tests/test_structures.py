"""Counting formulas, builtin m sequences, and total counts against
independent oracles (direct enumeration, classical recurrences)."""

import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import pkgutil
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

import combstruct
from combstruct import structures as st
from combstruct import sumdist as sd
from combstruct.errors import NumericGuardError, ParameterDomainError
from combstruct.indep_process import log_m_array
from combstruct import oracle as orc
from scalar_refs import divisor_lists as _divisor_lists
from scalar_refs import log_weight_mp


def perm_cycle_type_count(n, a):
    """Brute force: permutations of [n] with a_i cycles of size i."""
    count = 0
    for p in itertools.permutations(range(n)):
        seen = [False] * n
        sizes = [0] * n
        for s in range(n):
            if not seen[s]:
                ln, j = 0, s
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    ln += 1
                sizes[ln - 1] += 1
        if tuple(sizes) == tuple(a):
            count += 1
    return count


def bell_numbers(n):
    """Bell triangle, an oracle independent of the package recurrences."""
    row = [1]
    out = [1, 1]
    for _ in range(n - 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        out.append(row[-1])
    return out[: n + 1]


def partition_numbers(n):
    """Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def partitions_with_distinct_parts(n):
    return sum(1 for v in orc.enumerate_complete(n)
               if all(ai <= 1 for ai in v.a))


class TestMOf:
    def test_permutations(self):
        assert st.permutations().m(4) == 6

    def test_polynomials_q2(self):
        poly = st.polynomials(2)
        assert poly.m(4) == 3
        # the defining identity sum_{j|n} j m_j = q^n
        divs = _divisor_lists(30)
        for n in range(1, 31):
            assert sum(j * poly.m(j) for j in divs[n]) == 2 ** n

    def test_two_regular(self):
        spec = st.two_regular_graphs()
        assert spec.m(2) == 0
        assert spec.m(3) == 1
        assert spec.m(5) == 12

    def test_mappings_truncated_poisson_form(self):
        spec = st.mappings()
        for i in range(1, 9):
            direct = math.factorial(i - 1) * sum(
                Fraction(i) ** j / math.factorial(j) for j in range(i))
            assert spec.m(i) == direct

    def test_esf_fractional(self):
        spec = st.esf(Fraction(1, 2))
        assert spec.m(3) == Fraction(1)
        assert spec.m(4) == Fraction(3)

    def test_domain_error(self):
        with pytest.raises(ParameterDomainError):
            st.permutations().m(0)

    def test_selection_rejects_fractional_m(self):
        spec = st.StructureSpec(st.Kind.SELECTION, "bad",
                                lambda i: Fraction(1, 2))
        with pytest.raises(ParameterDomainError):
            spec.m(1)


# one instance of every builtin, with parameters where the factory takes them
BUILTIN_SPECS = [
    st.permutations(), st.mappings(), st.set_partitions(),
    st.two_regular_graphs(), st.esf(1), st.esf(Fraction(1, 2)), st.esf(3),
    st.integer_partitions(), st.polynomials(2), st.polynomials(3),
    st.necklaces(3), st.distinct_partitions(), st.distinct_odd_partitions(),
    st.squarefree_polynomials(2), st.squarefree_polynomials(5),
]


class TestFloatLogM:
    def test_every_builtin_is_covered(self):
        assert {s.params["builtin"] for s in BUILTIN_SPECS} == set(st.BUILTINS)
        assert all(s.log_m_fn is not None for s in BUILTIN_SPECS)

    @pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=lambda s: s.name)
    def test_matches_log_of_exact_m(self, spec):
        # the per-kind weight: log(m_i / i!) for an assembly, log m_i else
        n = st.EXACT_CUTOFF
        got = spec.log_m_fn(n)
        assert len(got) == n + 1 and got[0] == -math.inf
        for i in range(1, n + 1):
            want = log_weight_mp(spec, i)
            if want == -math.inf:
                assert got[i] == -math.inf, i
            else:
                assert abs(got[i] - want) <= 1e-13 * max(1.0, abs(want)), i

    def test_mapping_horner_equals_closed_sum(self):
        for i in range(1, 201):
            f = math.factorial(i - 1)
            closed = sum((f // math.factorial(j)) * i ** j for j in range(i))
            assert st._mapping_m(i) == closed, i

    @pytest.mark.parametrize("n", [1, 2, 1075, 1076, 16000])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_moebius_fill_matches_loop_bitwise(self, q, n):
        # n = 1075, 1076 straddle the last k whose terms do not underflow
        # for q = 2 (k_top = 1075)
        got = st._log_poly_m(q)(n)
        assert got.tobytes() == _loop_log_poly_m(q, n).tobytes()

    def test_moebius_sieve_matches_loop(self):
        for n in list(range(12)) + [1075, 1076, 5000]:
            got = st._mobius_sieve(n)
            assert got.dtype == np.int64
            assert got.tolist() == _loop_mobius_sieve(n).tolist(), n

    def test_m_list_spec_log_m(self):
        m = [2, 0, 3, Fraction(7, 2), 2 ** 80]
        spec = st.from_m_list("multiset", m)
        got = spec.log_m_fn(8)
        want = [-math.inf] + [st.log_big(v) for v in m] + [-math.inf] * 3
        assert got.tolist() == want
        assert spec.log_m_fn(2).tolist() == want[:3]


def _ulps(got: float, want) -> float:
    """|got - want| in units of the last place of want rounded to double;
    want is an mpmath number."""
    w = float(want)
    return float(abs(mpmath.mpf(got) - want)) / (math.ulp(w) if w else 5e-324)


class TestLogGammaKernels:
    def test_log_gamma_int_within_2_ulps(self):
        i = np.arange(1, 16002)
        got = st._log_gamma_int(i)
        with mpmath.workdps(30):
            worst = max(_ulps(g, mpmath.loggamma(k))
                        for k, g in zip(i.tolist(), got.tolist()))
        assert worst <= 2.0

    def test_log_gamma_int_bitwise_equals_expression(self):
        # the in-place evaluation rounds exactly as the one-line expression
        i = np.arange(1, 16002)
        x = i[i > 32].astype(float)
        m, e = np.frexp(x)
        h, r = x - 0.5, 1.0 / x
        r2 = r * r
        want = st._LOG_GAMMA_SMALL[1:33].tolist() + (
            h * (e * st._LN2_HI) + (
                h * (e * st._LN2_LO + np.log(m) - 1.0)
                + (st._HALF_LOG_2PI - 0.5)
                + r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680))))
        ).tolist()
        got = st._log_gamma_int(i)
        assert np.array_equal(got.view(np.int64),
                              np.array(want).view(np.int64))

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 150, 199, 200, 201, 500,
                                   1000, 4000, 9999, 16000])
    def test_mapping_log_m_within_2_ulps(self, n):
        # log(m_n / n!) = log sum_{k<n} n^k/k! - log n, summed in 40 digits:
        # within 2 ulps from the Ramanujan expansion on (n >= 200), within
        # 1e-14 relative from the cumprod table below it
        with mpmath.workdps(40):
            term = total = mpmath.mpf(1)
            for k in range(1, n):
                term = term * n / k
                total += term
            want = mpmath.log(total) - mpmath.log(n)
            got = st._log_mapping_m(n)[n]
            if n >= st._MAPPING_CUT:
                assert _ulps(got, want) <= 2.0
            else:
                assert abs(got - want) <= 1e-14 * abs(want)

    def test_mapping_log_m_at_one_and_two(self):
        got = st._log_mapping_m(2)
        assert got[0] == -math.inf and got[1] == 0.0
        assert got[2] == pytest.approx(math.log(1.5), rel=1e-15)


# the loops that the one-pass Moebius fill replaced, kept as references

def _loop_mobius_sieve(n):
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    composite = np.zeros(n + 1, dtype=bool)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        composite[2 * p::p] = True
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def _loop_log_poly_m(q, n):
    lq = math.log(q)
    k_top = min(n, int(st._LOG_UNDERFLOW / lq) + 1)
    mu = _loop_mobius_sieve(k_top)
    corr = np.zeros(n + 1)
    for k in range(2, k_top + 1):
        if mu[k]:
            d_top = min(n // k, int(st._LOG_UNDERFLOW / ((k - 1) * lq)))
            d = np.arange(1, d_top + 1)
            corr[k * d] += mu[k] * np.exp(-(k - 1) * lq * d)
    out = np.full(n + 1, -np.inf)
    i = np.arange(1, n + 1, dtype=float)
    out[1:] = i * lq - np.log(i) + np.log1p(corr[1:])
    return out


class TestCountN:
    def test_permutation_cycle_type_vs_enumeration(self):
        perm = st.permutations()
        assert st.count_N(perm, (1, 1, 0)) == perm_cycle_type_count(3, (1, 1, 0)) == 3
        for v in orc.enumerate_complete(4):
            assert st.count_N(perm, v) == perm_cycle_type_count(4, v.a)

    def test_integer_partition_always_one(self):
        ip = st.integer_partitions()
        for v in orc.enumerate_complete(6):
            assert st.count_N(ip, v) == 1

    def test_selection_binomial(self):
        spec = st.from_m_list("selection", [2, 2])
        assert st.count_N(spec, (2, 0)) == 1
        assert st.count_N(spec, (0, 1)) == 2

    def test_incomplete_is_zero(self):
        assert st.count_N(st.permutations(), (1, 0, 0)) == 0

    def test_negative_raises(self):
        with pytest.raises(ParameterDomainError):
            st.count_N(st.permutations(), (-1, 2, 0))

    @settings(max_examples=60, deadline=None)
    @given(hs.lists(hs.integers(min_value=0, max_value=3), min_size=3, max_size=6))
    def test_indicator_property(self, a):
        n = len(a)
        val = st.count_N(st.permutations(), tuple(a), n)
        weight = sum((i + 1) * ai for i, ai in enumerate(a))
        if weight != n:
            assert val == 0
        else:
            assert val > 0


class TestPTotal:
    def test_permutations_factorial(self):
        assert st.p_total(st.permutations(), 5) == 120

    def test_esf_rising_factorial(self):
        # theta-biased permutations and the kappa-weighted assembly agree
        assert st.p_total(st.permutations(), 3, 2) == 24
        assert st.p_total(st.esf(2), 3) == 24
        for n in range(1, 15):
            for theta in (Fraction(1, 2), 1, 2, 5):
                rising = math.prod(
                    (Fraction(theta) + t for t in range(n)), start=Fraction(1))
                assert st.p_total(st.permutations(), n, theta) == rising

    def test_set_partitions_bell(self):
        spec = st.set_partitions()
        bells = bell_numbers(25)
        assert st.p_total(spec, 5) == 52
        for n in range(1, 26):
            assert st.p_total(spec, n) == bells[n]

    def test_mappings_n_to_the_n(self):
        spec = st.mappings()
        for n in range(1, 13):
            assert st.p_total(spec, n) == n ** n

    def test_integer_partitions_pentagonal(self):
        spec = st.integer_partitions()
        p = partition_numbers(40)
        for n in range(1, 41):
            assert st.p_total(spec, n) == p[n]

    def test_polynomials_qn(self):
        spec = st.polynomials(3)
        for n in range(1, 16):
            assert st.p_total(spec, n) == 3 ** n

    def test_distinct_partitions_vs_enumeration(self):
        spec = st.distinct_partitions()
        for n in range(1, 16):
            assert st.p_total(spec, n) == partitions_with_distinct_parts(n)

    def test_squarefree_polynomials_closed_form(self):
        spec = st.squarefree_polynomials(2)
        assert st.p_total(spec, 1) == 2
        for n in range(2, 16):
            assert st.p_total(spec, n) == 2 ** n - 2 ** (n - 1)

    def test_float_path_x_independent(self):
        def float_p(spec, n, x):  # entry n of the float table at x
            return math.exp(sd._float_log_table(spec, n, 1, x)[n])
        perm = st.permutations()
        a = float_p(perm, 40, 1.0)
        b = float_p(perm, 40, 0.7)
        assert abs(a / b - 1) < 1e-9
        assert abs(a / float(st.p_total(perm, 40)) - 1) < 1e-9
        ip = st.integer_partitions()
        a = float_p(ip, 150, 0.85)
        b = float_p(ip, 150, 0.7)
        assert abs(a / b - 1) < 1e-9
        assert abs(a / st.p_total(ip, 150) - 1) < 1e-9
        dp = st.distinct_partitions()
        a = float_p(dp, 150, 0.85)
        b = float_p(dp, 150, 0.95)
        assert abs(a / b - 1) < 1e-9
        assert abs(a / st.p_total(dp, 150) - 1) < 1e-9

    def test_exact_path_x_free(self):
        # the exact table never touches x at all; spot-check against oracle sums
        for spec in (st.permutations(), st.distinct_odd_partitions()):
            for n in (3, 7, 10):
                total = sum(st.count_N(spec, v) for v in orc.enumerate_complete(n))
                assert st.p_total(spec, n) == total


def ptheta_table_fraction(spec, n, theta):
    """Reference: the coefficient recurrences in Fraction arithmetic, one
    normalised add per term (the route ptheta_table used before it was
    rewritten on scaled integers)."""
    theta = st.as_integral(Fraction(theta))
    p = [1]
    if spec.kind is st.Kind.ASSEMBLY:
        for nn in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, nn + 1):
                mj = spec.m(j)
                if mj:
                    acc += math.comb(nn - 1, j - 1) * theta * Fraction(mj) * p[nn - j]
            p.append(st.as_integral(acc))
        return p
    divs = _divisor_lists(n)
    sign = 1 if spec.kind is st.Kind.MULTISET else -1
    th = theta if spec.kind is st.Kind.MULTISET else -theta
    g = [0]
    for i in range(1, n + 1):
        gi = sum(k * spec.m(k) * th ** (i // k) for k in divs[i] if spec.m(k))
        g.append(sign * gi)
    for nn in range(1, n + 1):
        acc = sum(Fraction(g[i]) * p[nn - i] for i in range(1, nn + 1) if g[i])
        p.append(st.as_integral(Fraction(acc, nn)))
    return p


def typed(table):
    return [(type(v), v) for v in table]


SCALED_TABLE_SPECS = [
    st.permutations(), st.mappings(), st.set_partitions(),
    st.two_regular_graphs(), st.esf(Fraction(1, 2)), st.esf(0.3),
    st.integer_partitions(), st.polynomials(2), st.necklaces(3),
    st.distinct_partitions(), st.distinct_odd_partitions(),
    st.squarefree_polynomials(2),
    st.from_m_list("assembly", ["1/3", 2, "5/7", 0, "3/2"], name="rational_asm"),
    st.from_m_list("multiset", ["1/3", 2, "5/7", 0, "3/2"], name="rational_mset"),
    st.from_m_list("selection", [1, 0, 2, 3, 0, 1], name="selection_zeros"),
]


class TestScaledIntegerTables:
    """ptheta_table runs on scaled integers; the Fraction recurrence above
    is the reference, in value and in int/Fraction type."""

    def test_every_builtin_covered(self):
        names = {sp.params.get("builtin") for sp in SCALED_TABLE_SPECS}
        assert set(st.BUILTINS) <= names

    @pytest.mark.parametrize("spec", SCALED_TABLE_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("theta", [1, 2, Fraction(1, 2), Fraction(3, 5)],
                             ids=str)
    def test_matches_fraction_recurrence(self, spec, theta):
        got = st.ptheta_table(spec, 128, theta)
        assert typed(got) == typed(ptheta_table_fraction(spec, 128, theta))

    def test_esf_float_kappa_exact_m(self):
        spec = st.esf(0.3)
        assert spec.m(200) == Fraction(0.3) * math.factorial(199)
        assert typed(st.ptheta_table(spec, 200, 1)) \
            == typed(ptheta_table_fraction(st.esf(0.3), 200, 1))

    def test_permutations_512_half(self):
        # p_theta(n) of permutations is the rising factorial theta_(n)
        theta = Fraction(1, 2)
        want = [1]
        for k in range(512):
            want.append(st.as_integral(want[-1] * (theta + k)))
        assert typed(st.ptheta_table(st.permutations(), 512, theta)) == typed(want)

    def test_integer_partitions_512_half(self):
        # product expansion prod_i 1/(1 - theta x^i) on q(s) = 2^s p(s):
        # adding a part of size i maps q(s - i) to 2^(i-1) q(s - i)
        n = 512
        q = [1] + [0] * n
        for i in range(1, n + 1):
            w = 2 ** (i - 1)
            for s in range(i, n + 1):
                q[s] += w * q[s - i]
        want = [st.as_integral(Fraction(v, 2 ** s)) for s, v in enumerate(q)]
        got = st.ptheta_table(st.integer_partitions(), n, Fraction(1, 2))
        assert typed(got) == typed(want)

    @pytest.mark.parametrize("theta", [1, 2, Fraction(1, 2)], ids=str)
    def test_half_multiset_512(self, theta):
        # m = (1/2): p_theta(k) = theta^k C(k - 1/2, k) = theta^k C(2k, k) / 4^k,
        # and the scale D^k with D = b L^2 = 4 b clears every denominator
        want = [st.as_integral(Fraction(theta) ** k * Fraction(
            math.comb(2 * k, k), 4 ** k)) for k in range(513)]
        got = st.ptheta_table(st.from_m_list("multiset", ["1/2"]), 512, theta)
        assert typed(got) == typed(want)
        D = 4 * Fraction(theta).denominator
        assert all((D ** k * Fraction(v)).denominator == 1
                   for k, v in enumerate(got))

    @settings(max_examples=25, deadline=None)
    @given(hs.lists(hs.fractions(min_value=0, max_value=3, max_denominator=9),
                    min_size=1, max_size=6),
           hs.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 5)]))
    def test_rational_multiset_scale_is_integral(self, ms, theta):
        # D^k p_theta(k) is an integer for D = b L^2, with theta = a/b and
        # L the lcm of the denominators of m_j
        spec = st.from_m_list("multiset", ms)
        got = st.ptheta_table(spec, 30, theta)
        assert typed(got) == typed(ptheta_table_fraction(spec, 30, theta))
        D = Fraction(theta).denominator * math.lcm(
            *(Fraction(m).denominator for m in ms)) ** 2
        assert all((D ** k * Fraction(v)).denominator == 1
                   for k, v in enumerate(got))

    @pytest.mark.parametrize("spec,theta,n", [
        (st.esf(0.3), 2, 512), (st.esf(Fraction(1, 3)), 2, 512),
        (st.integer_partitions(), Fraction(1, 2), 512),
        (st.polynomials(2), Fraction(1, 2), 512),
        (st.from_m_list("multiset", ["1/2"]), Fraction(1, 2), 512),
        (st.from_m_list("multiset", ["1/3", 2, "5/7", 0, "3/2"]),
         Fraction(1, 2), 256),
    ], ids=["esf(0.3)", "esf(1/3)", "integer_partitions", "polynomials(2)",
            "m=1/2", "rational_mset"])
    def test_unscale_is_fraction_over_d_to_the_k(self, spec, theta, n,
                                                 monkeypatch):
        # _unscale reduces P(k) / D^k by gcds with D where it can: the same
        # values and int/Fraction types as Fraction(P(k), D^k)
        seen = []
        orig = st._unscale
        monkeypatch.setattr(st, "_unscale",
                            lambda P, D: seen.append((P, D)) or orig(P, D))
        got = st.ptheta_table(spec, n, theta)
        (P, D), = seen
        assert D > 1 and len(P) == n + 1
        want = [st.as_integral(Fraction(v, D ** k)) for k, v in enumerate(P)]
        assert typed(got) == typed(want)

    def test_warm_cache_returns_prefix(self):
        spec = st.esf(Fraction(3, 7))
        full = st.ptheta_table(spec, 60, Fraction(1, 2))
        cached = spec._table_cache[("ptheta", Fraction(1, 2))]
        part = st.ptheta_table(spec, 30, Fraction(1, 2))
        assert typed(part) == typed(full[:31])
        assert spec._table_cache[("ptheta", Fraction(1, 2))] is cached
        assert len(cached) == 61


ASSEMBLY_TABLE_SPECS = [sp for sp in SCALED_TABLE_SPECS
                        if sp.kind is st.Kind.ASSEMBLY]


CLOSED_FORM_SPECS = [st.permutations, st.mappings, st.set_partitions,
                     st.two_regular_graphs, lambda: st.esf(Fraction(1, 2)),
                     lambda: st.esf(0.3)]


class TestAssemblyTableForms:
    """The closed forms of the builtin assemblies (spec.ptheta_fn) and the
    binomial form, each against the Fraction recurrence."""

    @pytest.mark.parametrize("spec", ASSEMBLY_TABLE_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("theta", [1, 2, Fraction(1, 2), Fraction(3, 5)],
                             ids=str)
    def test_binomial_form_matches_fraction_recurrence(self, spec, theta):
        want = typed(ptheta_table_fraction(spec, 128, theta))
        theta = st.as_integral(Fraction(theta))
        assert typed(st._assembly_binomial(spec, 128, theta)) == want

    @settings(max_examples=30, deadline=None)
    @given(hs.lists(hs.fractions(min_value=0, max_value=4, max_denominator=9),
                    min_size=1, max_size=6),
           hs.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 5)]))
    def test_random_m_lists(self, ms, theta):
        spec = st.from_m_list("assembly", ms)
        want = typed(ptheta_table_fraction(spec, 30, theta))
        theta = st.as_integral(Fraction(theta))
        assert typed(st._assembly_binomial(spec, 30, theta)) == want

    @settings(max_examples=60, deadline=None)
    @given(hs.sampled_from(CLOSED_FORM_SPECS), hs.integers(1, 20),
           hs.integers(1, 9), hs.integers(0, 60))
    @example(st.two_regular_graphs, 1, 1, 0)
    @example(st.two_regular_graphs, 3, 5, 1)
    @example(st.two_regular_graphs, 3, 5, 2)
    def test_closed_forms_match_fraction_recurrence(self, make, a, b, n):
        spec = make()
        theta = st.as_integral(Fraction(a, b))
        want = typed(ptheta_table_fraction(spec, n, theta))
        assert typed(spec.ptheta_fn(n, theta)) == want

    @pytest.mark.parametrize("theta", [1, 2, Fraction(1, 2)], ids=str)
    def test_builtins_build_in_closed_form(self, monkeypatch, theta):
        def no_m(i):
            raise AssertionError(f"the mappings table read m_{i}")
        monkeypatch.setattr(st, "_mapping_m", no_m)
        for make in CLOSED_FORM_SPECS:
            spec = make()
            got = st.ptheta_table(spec, 128, theta)
            assert spec._m_cache == {}, spec.name
            want = spec.ptheta_fn(128, st.as_integral(Fraction(theta)))
            assert typed(got) == typed(want)

    def test_every_builtin_has_a_closed_form(self):
        for name, make in st.BUILTINS.items():
            spec = make(2) if name in ("esf", "polynomials", "necklaces",
                                       "squarefree_polynomials") else make()
            assert spec.ptheta_fn is not None, name
        for kind in st.Kind:
            spec = st.spec_from_json_dict({"kind": kind.value, "m": [1, 2, 6]})
            assert spec.ptheta_fn is None

    @pytest.mark.parametrize("make", CLOSED_FORM_SPECS,
                             ids=[make().name for make in CLOSED_FORM_SPECS])
    @pytest.mark.parametrize("theta", [1, 2, Fraction(1, 2), Fraction(3, 5)],
                             ids=str)
    def test_closed_forms_match_binomial_form_512(self, make, theta):
        spec = make()
        assert typed(spec.ptheta_fn(512, theta)) \
            == typed(st._assembly_binomial(spec, 512, theta))

    def test_esf_half_at_two_is_factorial_512(self):
        # theta kappa = 1: the Ewens weights of permutations, p(k) = k!
        got = st.ptheta_table(st.esf(Fraction(1, 2)), 512, 2)
        assert typed(got) == typed([math.factorial(k) for k in range(513)])

    def test_mappings_512(self):
        # there are k^k mappings of a k-set to itself
        got = st.ptheta_table(st.mappings(), 512, 1)
        assert typed(got) == typed([k ** k for k in range(513)])


THETA_ONE_SPECS = [st.integer_partitions, st.distinct_partitions,
                   st.distinct_odd_partitions] + [
    lambda q=q, f=f: f(q) for q in (2, 3, 5)
    for f in (st.polynomials, st.necklaces, st.squarefree_polynomials)]
THETA_ONE_IDS = [make().name for make in THETA_ONE_SPECS]
PARTITION_SPECS, POLY_SPECS = THETA_ONE_SPECS[:3], THETA_ONE_SPECS[3:]
PARTITION_IDS, POLY_IDS = THETA_ONE_IDS[:3], THETA_ONE_IDS[3:]
PARTITION_THETAS = [Fraction(1, 2), Fraction(3, 5), 1, Fraction(7, 5), 2, 3]


class TestThetaOneTableForms:
    """The closed forms of the builtin multisets and selections
    (spec.ptheta_fn), each against the divisor recurrence on its own m_j:
    the partition builtins have one at every theta, the polynomial
    families at theta = 1 only and take that recurrence elsewhere, on the
    m_j of one divisor-sum sieve."""

    @pytest.mark.parametrize("make", THETA_ONE_SPECS, ids=THETA_ONE_IDS)
    def test_closed_form_matches_divisor_recurrence(self, make):
        spec = make()
        for n in [*range(61), 512]:
            assert typed(spec.ptheta_fn(n, 1)) \
                == typed(st._divisor_recurrence(spec, n, 1)), n

    @pytest.mark.parametrize("make", PARTITION_SPECS, ids=PARTITION_IDS)
    @pytest.mark.parametrize("theta", PARTITION_THETAS, ids=str)
    def test_partition_forms_at_every_theta(self, make, theta):
        spec = make()
        for n in [*range(61), 128, 512]:
            assert typed(spec.ptheta_fn(n, theta)) \
                == typed(st._divisor_recurrence(spec, n, theta)), n

    @pytest.mark.parametrize("make", THETA_ONE_SPECS, ids=THETA_ONE_IDS)
    @pytest.mark.parametrize("theta", [2, Fraction(1, 2), Fraction(3, 5)],
                             ids=str)
    def test_other_thetas_take_the_recurrence(self, make, theta):
        spec = make()
        if make in POLY_SPECS:
            assert spec.ptheta_fn(128, theta) is None
        assert typed(st.ptheta_table(spec, 128, theta)) \
            == typed(st._divisor_recurrence(make(), 128, theta))

    @pytest.mark.parametrize("make", THETA_ONE_SPECS, ids=THETA_ONE_IDS)
    def test_theta_one_builds_in_closed_form(self, make):
        spec = make()
        got = st.ptheta_table(spec, 128, 1)
        assert spec._m_cache == {}
        assert typed(got) == typed(spec.ptheta_fn(128, 1))

    @pytest.mark.parametrize("make", PARTITION_SPECS, ids=PARTITION_IDS)
    @pytest.mark.parametrize("theta", PARTITION_THETAS, ids=str)
    def test_partition_tables_read_no_m(self, make, theta):
        spec = make()
        got = st.ptheta_table(spec, 128, theta)
        assert spec._m_cache == {}
        assert typed(got) == typed(spec.ptheta_fn(128, theta))

    @pytest.mark.parametrize("make", POLY_SPECS, ids=POLY_IDS)
    def test_sieve_matches_moebius_sum(self, make):
        spec = make()
        want = _moebius_m(spec.params["q"], 600)
        assert spec.m_list_fn(600) == want
        got = spec.m_list(600)
        assert got == want
        assert all(type(v) is int for v in got)
        assert spec._m_cache == dict(enumerate(got, start=1))

    def test_fresh_spec_sieves_again(self, monkeypatch):
        # the sieve's m_k live in each spec's own memo, none across specs
        calls = _spy_sieve(monkeypatch)
        first = st.polynomials(2)
        st.ptheta_table(first, 128, 2)
        st.ptheta_table(first, 128, Fraction(1, 2))  # its memo: no sieve
        assert calls == [(2, 128)]
        second = st.polynomials(2)
        assert second._m_cache == {}
        assert typed(st.ptheta_table(second, 128, 2)) \
            == typed(st.ptheta_table(first, 128, 2))
        assert calls == [(2, 128)] * 2

    def test_m_by_index_doubles_the_sieve(self, monkeypatch):
        # m(i) sieves to at least twice the largest index it holds: m(1),
        # ..., m(60) take the sieves to 1, 2, 4, 8, 16, 32 and 64
        calls = _spy_sieve(monkeypatch)
        spec = st.polynomials(2)
        assert [spec.m(i) for i in range(1, 61)] == _moebius_m(2, 60)
        assert len(calls) <= 7

    def test_m_list_keeps_memoized_entries(self):
        spec = st.squarefree_polynomials(5)
        m5 = spec.m(5)  # 624
        assert spec.m_list(8) == _moebius_m(5, 8)
        assert spec._m_cache[5] is m5


def _moebius(k):
    """mu(k) by trial division."""
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def _moebius_m(q, n):
    """[m_1, ..., m_n] of polynomials(q) by Gauss's Moebius sum, m_i = (1/i)
    sum_{k|i} mu(i/k) q^k."""
    divs = _divisor_lists(n)
    return [sum(_moebius(i // k) * q ** k for k in divs[i]) // i
            for i in range(1, n + 1)]


def _spy_sieve(monkeypatch):
    """The (q, n) of every _poly_m_list sieve of the specs made after it."""
    calls = []
    sieve = st._poly_m_list

    def spy(q):
        fill = sieve(q)

        def m_list(n):
            calls.append((q, n))
            return fill(n)
        return m_list
    monkeypatch.setattr(st, "_poly_m_list", spy)
    return calls


# sha256 of repr(ptheta_table(spec, n, theta)), taken before integer
# partitions at theta = 1 moved to the Durfee form and the divisor
# recurrence to its pass over multiples
TABLE_DIGESTS = [
    (st.integer_partitions, 512, 1,
     "b156e1b94ad4e88f444f32d2854fd4d61235a713a780b216261c40ef0c6191a1"),
    (st.integer_partitions, 512, 2,
     "80fcaa9bf59d2ce79487c6a6ca15fe29c18556249bc9b96146a91ea392c5830d"),
    (st.integer_partitions, 512, Fraction(1, 2),
     "55ef8cdca6786172c6f09ab19996f23a8b9b9698c6bcbfdf366dadfb73c0843d"),
    (st.integer_partitions, 512, Fraction(3, 5),
     "dd70f7f3a0e3c4b02b92a180c1062dd0c6e5222ac5d0a78fc77d2ce93baaf740"),
    (lambda: st.polynomials(2), 256, Fraction(1, 2),
     "ecb9f190f4355ced35ed6c0021972cd238b15e172a53e0df4b1ab9bc81bc6f79"),
    (lambda: st.polynomials(2), 256, 2,
     "d79413fc4c77277b64790e5ad7a3f50297ac2c9bab0b30c7032af2cf37c0db5d"),
    (lambda: st.squarefree_polynomials(2), 256, Fraction(1, 2),
     "dca3117aa0e1d393ebaaedd3835b7d3a55c0ffd1f4f9ac28e46c14c2e1c56003"),
    (lambda: st.squarefree_polynomials(2), 256, 2,
     "eabd600d7ca12b9662956af6135c5bf742f60916a7f53d60d5d48f9b307c112b"),
]


@pytest.mark.parametrize("make,n,theta,digest", TABLE_DIGESTS,
                         ids=[f"{make().name}-{n}-{theta}"
                              for make, n, theta, _ in TABLE_DIGESTS])
def test_exact_table_pinned(make, n, theta, digest):
    table = st.ptheta_table(make(), n, theta)
    assert hashlib.sha256(repr(table).encode()).hexdigest() == digest


class TestTableSlots:
    def test_build_runs_with_the_stale_slot_gone(self):
        spec = st.permutations()
        spec.table("t", lambda: [0] * 5, key="a")
        seen = []

        def build():
            seen.append(("t" in spec._table_cache, "t" in spec._table_keys))
            return [1] * 3
        assert spec.table("t", build, key="b") == [1] * 3
        assert seen == [(False, False)] and spec._table_keys["t"] == "b"
        assert spec.table("t", build, key="b", n=2) == [1] * 3  # a hit
        assert len(seen) == 1
        spec.table("t", build, key="b", n=3)  # too short: rebuilt
        assert len(seen) == 2 and list(spec._table_cache) == ["t"]

    def test_specs_compare_without_their_tables(self):
        a, b = st.permutations(), st.permutations()
        log_m_array(a, 5)
        log_m_array(b, 5)
        assert a == b  # raised on the ambiguous truth value of two arrays
        assert a == st.permutations()
        assert a != st.set_partitions()

    def test_failed_build_leaves_the_slot_empty(self):
        spec = st.permutations()
        spec.table("t", lambda: [0], key="a")

        def build():
            raise ParameterDomainError("no table")
        with pytest.raises(ParameterDomainError):
            spec.table("t", build, key="b")
        assert spec._table_cache == {} and spec._table_keys == {}


class TestExactThetaDomain:
    # every exact route reads ptheta_table, which refuses theta <= 0 (the
    # tables used to be built and read at theta = 0 and theta = -1)
    @pytest.mark.parametrize("theta", [0, -1, Fraction(-1, 2)], ids=str)
    @pytest.mark.parametrize("spec", [
        st.permutations(), st.from_m_list("assembly", [1, 2, 1]),
        st.integer_partitions(), st.distinct_partitions(),
    ], ids=lambda s: s.name)
    def test_non_positive_theta_is_a_domain_error(self, spec, theta):
        with pytest.raises(ParameterDomainError, match="theta must be positive"):
            st.ptheta_table(spec, 5, theta)
        with pytest.raises(ParameterDomainError, match="theta must be positive"):
            st.p_total(spec, 5, theta)
        assert spec._table_cache == {}


class TestComponentVectorRows:
    def test_rows_equal_vectors_built_one_by_one(self):
        rows = np.random.default_rng(3).integers(0, 4, (6, 9))
        got = st.ComponentVector.from_rows(rows)
        want = [st.ComponentVector(tuple(r)) for r in rows.tolist()]
        assert got == want
        assert [hash(v) for v in got] == [hash(v) for v in want]
        assert all(type(c) is int for v in got for c in v.a)
        assert st.ComponentVector.from_rows(rows[:0]) == []

    @pytest.mark.parametrize("rows", [
        np.array([[0, 1, 0], [2, -1, 0]]),  # a negative count
        np.zeros(4, dtype=np.int64),        # not a (count, n) array
        np.zeros((1, 0), dtype=np.int64),   # weight below 1
    ])
    def test_rows_checked_once(self, rows):
        with pytest.raises(ParameterDomainError):
            st.ComponentVector.from_rows(rows)


class TestSettableFields:
    # "One setter per value": the settable fields of the public dataclasses
    # of the package's modules (dataclasses.fields, leaving out _-prefixed
    # fields), counted rather than kept by hand
    def test_public_records_hold_41_fields(self):
        counts = {}
        for info in pkgutil.iter_modules(combstruct.__path__):
            mod = importlib.import_module(f"combstruct.{info.name}")
            for name, obj in vars(mod).items():
                if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                        and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    counts[f"{info.name}.{name}"] = sum(
                        not f.name.startswith("_")
                        for f in dataclasses.fields(obj))
        assert sum(counts.values()) == 41, counts

class TestUniformPmf:
    def test_permutation_examples(self):
        perm = st.permutations()
        assert st.uniform_pmf(perm, (0, 0, 1)) == Fraction(1, 3)
        assert st.uniform_pmf(perm, (1, 0, 0), n=3) == 0
        assert st.uniform_pmf(perm, (2, 0), theta=2, n=2) == Fraction(2, 3)

    def test_float_theta_beyond_double_range(self):
        # N = 199! and p_theta(200) = (1/2)_(200) are both past 1e308
        perm, v = st.permutations(), [0] * 199 + [1]
        want = float(st.uniform_pmf(perm, v, theta=Fraction(1, 2)))
        assert st.uniform_pmf(perm, v, theta=0.5) == pytest.approx(want, rel=1e-12)
        with pytest.raises(NumericGuardError, match="log_ptheta_table"):
            st.p_total(perm, 200, 0.5)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 2])
    def test_total_mass_exactly_one(self, theta):
        for spec in (st.permutations(), st.set_partitions(), st.mappings(),
                     st.two_regular_graphs(), st.esf(Fraction(1, 2)),
                     st.integer_partitions(), st.polynomials(2),
                     st.distinct_partitions(), st.distinct_odd_partitions(),
                     st.squarefree_polynomials(2)):
            for n in (6, 12):
                total = sum(st.uniform_pmf(spec, v, theta)
                            for v in orc.enumerate_complete(n))
                assert total == 1


class TestCountingInvariant:
    def test_sum_count_N_equals_p_total(self):
        for spec in (st.permutations(), st.set_partitions(), st.mappings(),
                     st.two_regular_graphs(), st.esf(2),
                     st.integer_partitions(), st.polynomials(2),
                     st.necklaces(3), st.distinct_partitions(),
                     st.distinct_odd_partitions(), st.squarefree_polynomials(2)):
            for n in range(1, 13):
                total = sum(st.count_N(spec, v) for v in orc.enumerate_complete(n))
                assert total == st.p_total(spec, n, 1), (spec.name, n)


class TestSpecJson:
    def test_builtin_roundtrip(self):
        spec = st.spec_from_json_dict(
            {"kind": "multiset", "builtin": "polynomials", "params": {"q": 2}})
        assert spec.m(4) == 3
        again = st.spec_from_json_dict(spec.to_json_dict())
        assert again.spec_hash() == spec.spec_hash()

    def test_spec_hash_is_hashlib_sha256(self):
        # the '# spec' header's hash is the same bytes whichever sha256
        # module structures picked
        for spec in BUILTIN_SPECS + [st.from_m_list("assembly",
                                                    [3, 0, "1/2", 2])]:
            blob = json.dumps(spec.to_json_dict(), sort_keys=True,
                              separators=(",", ":"))
            want = hashlib.sha256(blob.encode()).hexdigest()[:12]
            assert spec.spec_hash() == want, spec.name

    def test_explicit_m_list(self):
        spec = st.spec_from_json_dict({"kind": "selection", "m": [2, 1]})
        assert spec.m(1) == 2 and spec.m(2) == 1 and spec.m(3) == 0

    def test_kind_mismatch(self):
        with pytest.raises(ParameterDomainError):
            st.spec_from_json_dict({"kind": "multiset", "builtin": "permutations"})

    def test_unknown_kind_is_domain_error(self):
        with pytest.raises(ParameterDomainError, match="valid kinds"):
            st.spec_from_json_dict({"kind": "assembli", "m": [1, 2]})
        with pytest.raises(ParameterDomainError, match="valid kinds"):
            st.spec_from_json_dict({"kind": "multi", "builtin": "polynomials",
                                    "params": {"q": 2}})

    def test_esf_fraction_param(self):
        spec = st.spec_from_json_dict(
            {"kind": "assembly", "builtin": "esf", "params": {"kappa": "1/2"}})
        assert spec.m(4) == 3

    def test_logarithmic_metadata_hypothesis(self):
        # m_i/i! ~ kappa y^i / i for mappings (kappa=1/2, y=e), within 2% at i=200
        spec = st.mappings()
        i = 200
        ratio = math.exp(st.log_big(spec.m(i)) - math.lgamma(i + 1)
                         - (i - math.log(i) + math.log(0.5)))
        assert abs(ratio - 1) < 0.02
