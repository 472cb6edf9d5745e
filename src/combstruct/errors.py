"""Exception hierarchy shared by all combstruct modules.

The CLI maps these onto exit codes: ParameterDomainError -> 3,
NumericGuardError -> 4.  Flag/usage problems are argparse's exit 2.
"""


class CombstructError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(CombstructError):
    """Inputs outside the mathematical domain of an operation.

    Examples: multiset tilt with theta*x >= 1, negative component counts,
    enumeration above the configured cap, a solver strategy applied to a
    structure family it is not defined for.
    """


class NumericGuardError(CombstructError):
    """A numeric safety check tripped.

    Examples: sampling refused because P(T_n = n) underflows, a per-index
    mean or recursion weight beyond double range (x too large), the signed
    selection recursion cancels past its certificate, psi(c) overflowing in
    limit_density or density_integral (kappa = 2, c = -20).
    """


def underflow_error(n: int, k="n") -> NumericGuardError:
    """The guard every route raises where P(T_n = k) underflowed to 0 at
    weight n although structures of that weight exist."""
    return NumericGuardError(f"P(T_n = {k}) underflowed to 0 at n = {n}; "
                             "choose an x nearer the exact-mean x")
