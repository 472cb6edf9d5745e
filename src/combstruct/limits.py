"""The logarithmic-class limit law for T_n / n and its derived constants.

When i E Z_i -> kappa and x = e^{-c/n}/y, the rescaled weighted sum T_n/n
converges to a law X_{kappa,c} whose Laplace transform is

    psi_c(s) = exp(-kappa int_0^1 (1 - e^{-s u}) e^{-c u} du / u),

and whose density on [0, 1] is known explicitly:

    g_c(z) = e^{-gamma kappa} e^{-c z} z^{kappa-1} / (Gamma(kappa) psi(c)).

Both have closed forms, so no quadrature is needed: the Laplace exponent
is kappa (Ein(c + s) - Ein(c)) with Ein the entire exponential integral,
and int_0^z g_c is a lower incomplete gamma function, summed by a series
of positive terms.

The local-limit heuristic P(T_n = n) ~ g_c(1)/n drives the choice-of-x
discussion; limit_law_check compares it, and the empirical cdf of T_n/n,
against these predictions at finite n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError
from .structures import StructureSpec
from .indep_process import TiltedParams, overflow_guard

EULER_GAMMA = 0.5772156649015329

_EPS = 2.0 ** -52
_TINY = 1e-300  # the Lentz iteration's stand-in for 0
_MAX_TERMS = 200  # E1's continued fraction converges in < 40 above z = 2
_BIG = 2.0 ** 1000
_LOG_BIG = 1000 * math.log(2.0)

# the points z at which limit_law_check compares the empirical cdf of T_n/n
ECDF_GRID = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class LimitLaw:
    kappa: float
    c: float = 0.0
    gamma: float = EULER_GAMMA

    def __post_init__(self):
        if self.kappa <= 0:
            raise ParameterDomainError("kappa must be positive")


def _ein(z: float) -> float:
    """Ein(z) = int_0^z (1 - e^{-t}) dt / t = sum_{k>=1} (-1)^{k+1} z^k / (k k!).

    The series for z <= 2, whose terms all share one sign when z < 0;
    E1(z) + log z + gamma above, with E1 by the modified Lentz continued
    fraction (Numerical Recipes 6.3).  OverflowError where |Ein(z)| is
    beyond double range (z below about -716)."""
    if z <= 2.0:
        term = total = z
        k = 1
        while True:
            k += 1
            term *= -z / k
            new = total + term / k
            if new == total:
                break
            total = new
        if not math.isfinite(total):
            raise OverflowError("Ein(z) beyond double range")
        return total
    b = z + 1.0
    c = 1.0 / _TINY
    d = h = 1.0 / b
    for i in range(1, _MAX_TERMS):
        an = -float(i * i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return h * math.exp(-z) + math.log(z) + EULER_GAMMA


def _log_psi_integral(kappa: float, s: float, c: float) -> float:
    """kappa int_0^1 (1 - e^{-s u}) e^{-c u} du / u = kappa (Ein(c + s) - Ein(c))."""
    if s == 0.0:
        return 0.0
    return kappa * (_ein(c + s) - _ein(c))


def laplace_psi(law: LimitLaw, s: float) -> float:
    """psi_c(s) = E exp(-s X_{kappa,c}); satisfies psi_c(s) psi(c) = psi(c+s)."""
    if s < 0:
        raise ParameterDomainError("Laplace argument must be >= 0")
    return math.exp(-_log_psi_integral(law.kappa, s, law.c))


def psi0(kappa: float, u: float) -> float:
    """psi(u) for the untilted law X_kappa (any real u)."""
    return math.exp(-_log_psi_integral(kappa, u, 0.0))


@overflow_guard("the limit density g_c")
def limit_density(law: LimitLaw, z: float) -> float:
    """g_c(z) = e^{-gamma kappa} e^{-c z} z^{kappa-1} / (Gamma(kappa) psi(c)),
    valid on 0 <= z <= 1 (the density is explicit only there)."""
    if not (0.0 <= z <= 1.0):
        raise ParameterDomainError("the explicit density lives on [0, 1]")
    k, c = law.kappa, law.c
    if z == 0.0:
        if k < 1:
            return math.inf
        if k > 1:
            return 0.0
        return math.exp(-law.gamma) / psi0(1.0, c)
    return (math.exp(-law.gamma * k - c * z) * z ** (k - 1.0)
            / (math.gamma(k) * psi0(k, c)))


def _tilted_gamma_integral(kappa: float, c: float, z: float) -> float:
    """int_0^z e^{-c u} u^{kappa-1} du for z > 0, a lower incomplete gamma
    function, by a series of positive terms: z^kappa e^{-cz} sum_j
    (cz)^j / (kappa (kappa+1) ... (kappa+j)) for cz >= 0, z^kappa sum_j
    (-cz)^j / (j! (kappa+j)) for cz < 0.  The first sum is rescaled by
    2^-1000 whenever it passes 2^1000, so a large cz neither overflows it
    nor underflows e^{-cz}."""
    x = c * z
    if x >= 0.0:
        term = total = 1.0 / kappa
        j = scale = 0
        while True:
            j += 1
            term *= x / (kappa + j)
            new = total + term
            if new == total:
                break
            total = new
            if total > _BIG:
                total, term, scale = total / _BIG, term / _BIG, scale + 1
        return math.exp(kappa * math.log(z) - x + math.log(total)
                        + scale * _LOG_BIG)
    power = 1.0  # (-cz)^j / j!
    total = 1.0 / kappa
    j = 0
    while True:
        j += 1
        power *= -x / j
        new = total + power / (kappa + j)
        if new == total:
            break
        total = new
    return z ** kappa * total


@overflow_guard("the integrated limit density")
def density_integral(law: LimitLaw, z: float) -> float:
    """int_0^z g_c(u) du for z in [0, 1]:
    e^{-gamma kappa} / (Gamma(kappa) psi(c)) int_0^z e^{-c u} u^{kappa-1} du."""
    if not (0.0 <= z <= 1.0):
        raise ParameterDomainError("the explicit density lives on [0, 1]")
    if z == 0.0:
        return 0.0
    k = law.kappa
    return (math.exp(-law.gamma * k) * _tilted_gamma_integral(k, law.c, z)
            / (math.gamma(k) * psi0(k, law.c)))


@dataclass
class LimitCheckReport:
    """Finite-n discrepancies against the logarithmic-class limit law."""

    kappa_eff: float
    c: float
    n: int
    prob_times_n: float
    predicted_g1: float
    rel_gap: float
    cdf_rows: list = field(default_factory=list)  # (z, empirical, predicted)

    def max_cdf_gap(self) -> float:
        if not self.cdf_rows:
            return 0.0
        return max(abs(e - p) for _, e, p in self.cdf_rows)


def limit_law_check(spec: StructureSpec, n: int, params: TiltedParams,
                    ecdf_samples: int = 0, seed: int = 0) -> LimitCheckReport:
    """Compare n P_theta(T_n = n) against the local-limit value g_c(1), and
    (optionally) the empirical cdf of T_n/n against the integrated density
    at each z of ECDF_GRID.

    The structure must carry logarithmic metadata (kappa, y); the effective
    parameters are kappa_eff = kappa * theta and c = -n log(x y).
    """
    if spec.meta is None:
        raise ParameterDomainError("limit checks need (kappa, y) metadata")
    if ecdf_samples < 0:
        raise ParameterDomainError("ecdf_samples must be >= 0")
    from . import sumdist
    from . import sampler as smp
    kappa_eff = float(spec.meta.kappa) * params.ftheta
    c = -n * (math.log(params.fx) + math.log(spec.meta.y))
    law = LimitLaw(kappa=kappa_eff, c=c)
    g1 = limit_density(law, 1.0)
    npn = n * sumdist.prob_T_eq_n(spec, n, params)
    report = LimitCheckReport(kappa_eff=kappa_eff, c=c, n=n, prob_times_n=npn,
                              predicted_g1=g1, rel_gap=abs(npn / g1 - 1.0))
    if ecdf_samples > 0:
        ts = smp.draw_T(spec, n, params, ecdf_samples, smp.RngState(seed))
        for z in ECDF_GRID:
            emp = float(np.mean(ts <= z * n))
            report.cdf_rows.append((z, emp, density_integral(law, z)))
    return report
