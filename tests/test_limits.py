"""The limit density, its Laplace transform, and finite-n local-limit checks."""

import math

import mpmath
import pytest
from scipy.integrate import quad

from combstruct import structures as st
from combstruct import limits, verify
from combstruct.errors import NumericGuardError, ParameterDomainError
from combstruct.indep_process import TiltedParams

GAMMA = limits.EULER_GAMMA


class TestDensity:
    def test_kappa_one_flat(self):
        law = limits.LimitLaw(1.0, 0.0)
        for z in (0.0, 0.3, 0.99, 1.0):
            assert limits.limit_density(law, z) == pytest.approx(
                math.exp(-GAMMA), rel=1e-12)

    def test_log_derivative_at_one(self):
        # g'(1-)/g(1) = kappa - 1 by central finite difference around 1 - h
        h = 1e-5
        for kappa in (0.5, 1.0, 2.0, 3.5):
            law = limits.LimitLaw(kappa, 0.0)
            d = (limits.limit_density(law, 1.0)
                 - limits.limit_density(law, 1.0 - 2 * h)) / (2 * h)
            ratio = d / limits.limit_density(law, 1.0 - h)
            assert abs(ratio - (kappa - 1)) < 1e-4

    def test_tilted_derivative_vanishes_at_optimal_c(self):
        h = 1e-5
        for kappa in (0.5, 1.0, 2.0):
            law = limits.LimitLaw(kappa, kappa - 1.0)
            d = (limits.limit_density(law, 1.0)
                 - limits.limit_density(law, 1.0 - 2 * h)) / (2 * h)
            assert abs(d / limits.limit_density(law, 1.0 - h)) < 1e-4

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            limits.limit_density(limits.LimitLaw(1.0), 1.5)

    def test_mass_on_unit_interval(self):
        # for kappa <= 1 the sub-unit mass stays below 1; kappa=1,c=0 gives e^-gamma
        for kappa in (0.3, 0.7, 1.0):
            val = limits.density_integral(limits.LimitLaw(kappa, 0.0), 1.0)
            assert val <= 1 + 1e-12
        v1 = limits.density_integral(limits.LimitLaw(1.0, 0.0), 1.0)
        assert v1 == pytest.approx(math.exp(-GAMMA), rel=1e-10)


class TestLaplace:
    def test_at_zero(self):
        assert limits.laplace_psi(limits.LimitLaw(2.0, 1.0), 0.0) == 1.0

    def test_functional_equation_grid(self):
        # psi_c(s) psi(c) = psi(c + s) holds by construction of the closed
        # forms in Ein, so both sides are also held to mpmath quadrature
        for kappa in (0.5, 1.0, 2.0):
            for c in (0.0, kappa - 1.0):
                law = limits.LimitLaw(kappa, c)
                for s in (0.1, 1.0, 5.0):
                    lhs = limits.laplace_psi(law, s) * limits.psi0(kappa, c)
                    rhs = limits.psi0(kappa, c + s)
                    assert abs(lhs - rhs) < 1e-8
                    with mpmath.workdps(20):
                        for got, want in (
                                (limits.laplace_psi(law, s),
                                 mpmath.exp(-_mp_log_psi(kappa, c, s))),
                                (rhs, mpmath.exp(-_mp_log_psi(kappa, 0, c + s)))):
                            assert abs(got - want) <= 1e-12 * want, (kappa, c, s)

    def test_mean_via_derivative(self):
        # E X_{kappa,c} = kappa (1 - e^{-c})/c = -psi_c'(0)
        h = 1e-6
        for kappa, c in ((1.0, 1.0), (2.0, 1.0), (0.5, -0.5)):
            law = limits.LimitLaw(kappa, c)
            d = (limits.laplace_psi(law, 2 * h) - 1.0) / (2 * h)
            want = kappa * (1 - math.exp(-c)) / c
            assert abs(-d - want) < 1e-5

    def test_density_transform_consistency(self):
        # int_0^1 e^{-sz} g_c(z) dz <= psi_c(s): the density covers only [0,1]
        for kappa, c in ((0.5, 0.0), (1.0, 0.0), (2.0, 1.0)):
            law = limits.LimitLaw(kappa, c)
            for s in (0.0, 0.5, 2.0):
                part, _ = quad(lambda z: math.exp(-s * z)
                               * limits.limit_density(law, z), 0, 1,
                               epsabs=1e-10)
                assert part <= limits.laplace_psi(law, s) + 1e-9


def _mp_ein(z):
    """Ein(z) = E1(z) + log z + gamma (real part for z < 0) in mpmath."""
    z = mpmath.mpf(z)
    if z == 0:
        return mpmath.mpf(0)
    if z > 0:
        return mpmath.e1(z) + mpmath.log(z) + mpmath.euler
    return mpmath.log(-z) + mpmath.euler - mpmath.ei(-z)


def _mp_log_psi(kappa, c, s):
    """kappa int_0^1 (1 - e^{-s u}) e^{-c u} du / u by mpmath quadrature."""
    c, s = mpmath.mpf(c), mpmath.mpf(s)
    return kappa * mpmath.quad(
        lambda u: -mpmath.expm1(-s * u) * mpmath.exp(-c * u) / u, [0, 1])


KAPPAS = (0.5, 1.0, 1.5, 2.0)
CS = (-3.0, -0.5, 0.0, 0.7, 3.0, 20.0)


class TestClosedForms:
    """laplace_psi, psi0 and density_integral against mpmath (30 digits),
    relative to 1e-13."""

    def test_ein_series_and_continued_fraction(self):
        with mpmath.workdps(30):
            for z in (-40.0, -20.4, -3.0, -1e-8, 1e-8, 0.5, 1.999, 2.0,
                      2.001, 5.0, 40.0, 700.0):
                want = _mp_ein(z)
                assert abs(limits._ein(z) - want) <= 4e-15 * abs(want), z

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_laplace_psi(self, kappa):
        with mpmath.workdps(30):
            for c in CS:
                law = limits.LimitLaw(kappa, c)
                for s in (1e-6, 0.1, 1.0, 5.0):
                    want = mpmath.exp(-_mp_log_psi(kappa, c, s))
                    got = limits.laplace_psi(law, s)
                    assert abs(got - want) <= 1e-13 * want, (c, s)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_psi0(self, kappa):
        with mpmath.workdps(30):
            for c in CS:
                want = mpmath.exp(-_mp_log_psi(kappa, 0.0, c))
                assert abs(limits.psi0(kappa, c) - want) <= 1e-13 * want, c

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_density_integral(self, kappa):
        with mpmath.workdps(30):
            for c in CS:
                law = limits.LimitLaw(kappa, c)
                scale = (mpmath.exp(-mpmath.euler * kappa - c)  # g_c(1)
                         / (mpmath.gamma(kappa)
                            * mpmath.exp(-_mp_log_psi(kappa, 0.0, c))))
                for z in (0.25, 0.5, 0.75, 1.0):
                    want = scale * mpmath.quad(
                        lambda u: mpmath.exp(c * (1 - u)) * u ** (kappa - 1),
                        [0, z])
                    got = limits.density_integral(law, z)
                    assert abs(got - want) <= 1e-13 * want, (c, z)

    def test_large_cz_integral_is_the_mass_near_zero(self):
        # at c = 4000 nearly all of X_{kappa,c} lies below z = 1/4; the
        # series' sum passes 2^1000 and e^{-cz} underflows, so only the
        # rescaled sum gets this right
        for kappa in (0.5, 2.0):
            law = limits.LimitLaw(kappa, 4000.0)
            assert limits.density_integral(law, 0.25) == pytest.approx(
                1.0, rel=1e-12)

    def test_verify_check_is_independent_of_the_closed_form(self,
                                                            monkeypatch):
        # psi_c(s) psi(c) = psi(c + s) holds for any exponent of the form
        # F(c + s) - F(c); the Simpson check must catch an Ein off by 1e-9
        assert verify.check_psi_quadrature()[1]
        ein = limits._ein
        monkeypatch.setattr(limits, "_ein", lambda z: ein(z) * (1 + 1e-9))
        assert not verify.check_psi_quadrature()[1]

    def test_overflowing_psi_is_a_numeric_guard(self):
        # psi(-20) = e^{kappa |Ein(-20)|} is beyond double range at kappa = 2
        law = limits.LimitLaw(2.0, -20.0)
        with pytest.raises(NumericGuardError, match="integrated limit density"):
            limits.density_integral(law, 0.5)
        with pytest.raises(NumericGuardError, match="limit density g_c"):
            limits.limit_density(law, 0.5)


class TestLimitLawCheck:
    def test_permutations_n2000(self):
        rep = limits.limit_law_check(st.permutations(), 2000,
                                     TiltedParams(1.0, 1))
        assert rep.kappa_eff == 1.0 and abs(rep.c) < 1e-9
        assert abs(rep.prob_times_n / math.exp(-GAMMA) - 1) < 0.02

    def test_polynomials_n500(self):
        rep = limits.limit_law_check(st.polynomials(2), 500,
                                     TiltedParams(0.5, 1))
        assert abs(rep.prob_times_n / math.exp(-GAMMA) - 1) < 0.10

    def test_esf2_tilted(self):
        n = 2000
        c = 2 * 1 - 1  # kappa*theta - 1
        x = math.exp(-c / n)
        rep = limits.limit_law_check(st.esf(2), n, TiltedParams(x, 1))
        assert rep.c == pytest.approx(1.0, abs=1e-9)
        want = math.exp(-2 * GAMMA) * math.exp(-1.0) / limits.psi0(2.0, 1.0)
        assert rep.predicted_g1 == pytest.approx(want, rel=1e-10)
        assert abs(rep.prob_times_n / want - 1) < 0.05

    def test_empirical_cdf(self):
        rep = limits.limit_law_check(st.permutations(), 400,
                                     TiltedParams(1.0, 1),
                                     ecdf_samples=4000, seed=7)
        assert rep.cdf_rows
        assert rep.max_cdf_gap() < 0.05

    def test_needs_meta(self):
        with pytest.raises(ParameterDomainError):
            limits.limit_law_check(st.set_partitions(), 100,
                                   TiltedParams(3.0, 1))
