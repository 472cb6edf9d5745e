"""Ground-truth engine: exhaustive enumeration with exact rational arithmetic.

Enumerates every complete component vector (sum i a_i = n, i.e. the integer
partitions of n encoded as count vectors), builds the exact theta-biased
joint law as big rationals, and provides pushforwards, marginals, and exact
total variation distances.  Every floating-point computation in the package
is validated against this module at small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Iterator, Tuple

from .errors import ParameterDomainError
from .structures import (ComponentVector, Kind, Numeric, StructureSpec,
                         count_N)

DEFAULT_CAP = 25

Vec = Tuple[int, ...]


def enumerate_complete(n: int, cap: int = DEFAULT_CAP) -> Iterator[ComponentVector]:
    """All complete component vectors of weight n, lexicographically, each once.

    The count equals the number-theoretic partition number p(n); the default
    cap of 25 bounds this at p(25) = 1958 vectors.
    """
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    if n > cap:
        raise ParameterDomainError(f"enumeration cap {cap} exceeded (n = {n})")
    for a in sorted(_count_vectors(n)):
        yield ComponentVector(a)


def _count_vectors(n: int) -> list[Vec]:
    out = []

    def rec(remaining: int, max_part: int, counts: list[int]):
        if remaining == 0:
            out.append(tuple(counts))
            return
        for part in range(min(remaining, max_part), 0, -1):
            counts[part - 1] += 1
            rec(remaining - part, part, counts)
            counts[part - 1] -= 1

    rec(n, n, [0] * n)
    return out


@dataclass
class ExactLaw:
    """A finitely-supported law with exact rational probabilities."""

    entries: Dict[Hashable, Fraction]

    def __post_init__(self):
        total = sum(self.entries.values())
        if total != 1:
            raise ParameterDomainError(f"exact law has total mass {total} != 1")

    def prob(self, key: Hashable) -> Fraction:
        return self.entries.get(key, Fraction(0))

    def expectation(self, f: Callable[[Hashable], Numeric]) -> Fraction:
        return sum((Fraction(f(k)) * p for k, p in self.entries.items()),
                   Fraction(0))


def exact_joint_law(spec: StructureSpec, n: int, theta: Numeric = 1,
                    cap: int = DEFAULT_CAP) -> ExactLaw:
    """The exact law of C(n) under P_theta: N(n,a) theta^{sum a} / p_theta(n)."""
    if not isinstance(theta, (int, Fraction)):
        raise ParameterDomainError("the oracle needs a rational theta")
    theta = Fraction(theta)
    weights: Dict[Vec, Fraction] = {}
    for v in enumerate_complete(n, cap):
        nn = count_N(spec, v)
        if nn:
            weights[v.a] = Fraction(nn) * theta ** v.num_components
    total = sum(weights.values())
    if total == 0:
        raise ParameterDomainError(f"no structures of weight {n} in this family")
    return ExactLaw(entries={a: w / total for a, w in weights.items()})


def exact_functional_law(law: ExactLaw, h: Callable[[Hashable], Hashable]) -> ExactLaw:
    """Pushforward of an exact law by a deterministic functional."""
    out: Dict[Hashable, Fraction] = {}
    for key, p in law.entries.items():
        img = h(key)
        out[img] = out.get(img, Fraction(0)) + p
    return ExactLaw(entries=out)


def restrict_law(law: ExactLaw, B: Iterable[int]) -> ExactLaw:
    """Marginal law of the coordinates in B (keys become tuples over B)."""
    bs = tuple(sorted(set(B)))
    return exact_functional_law(law, lambda a: tuple(a[i - 1] for i in bs))


def exact_tv(law_a: ExactLaw, law_b: ExactLaw) -> Fraction:
    """Total variation distance between two exact laws, as a rational."""
    keys = set(law_a.entries) | set(law_b.entries)
    return sum((abs(law_a.prob(k) - law_b.prob(k)) for k in keys),
               Fraction(0)) / 2


# ---------------------------------------------------------------------------
# comparisons against product (independent) laws with float probabilities
# ---------------------------------------------------------------------------

def vectors_bounded(indices: Tuple[int, ...], weights: Tuple[int, ...],
                    budget: int) -> Iterator[Vec]:
    """All nonneg vectors b over `indices` with sum weights[j]*b[j] <= budget."""
    k = len(indices)

    def rec(j: int, left: int, acc: list[int]):
        if j == k:
            yield tuple(acc)
            return
        w = weights[j]
        for v in range(left // w + 1):
            acc.append(v)
            yield from rec(j + 1, left - w * v, acc)
            acc.pop()

    yield from rec(0, budget, [])


def tv_against_product(marginal: ExactLaw, B: Tuple[int, ...],
                       pmfs: Dict[int, Callable[[int], float]], n: int) -> float:
    """d_TV between an exact law on Z_+^B and an independent product law.

    The exact side vanishes outside {sum i b_i <= n}, so the distance is
    (1/2) sum over that finite box of |P_C - P_Z| plus half the product-law
    mass outside the box.
    """
    body = 0.0
    covered = 0.0
    for b in vectors_bounded(B, B, n):
        pz = 1.0
        for i, bi in zip(B, b):
            pz *= pmfs[i](bi)
        pc = float(marginal.prob(b))
        body += abs(pc - pz)
        covered += pz
    return 0.5 * body + 0.5 * max(0.0, 1.0 - covered)


# ---------------------------------------------------------------------------
# refined configurations D_{ij}
# ---------------------------------------------------------------------------

def refined_index_set(spec: StructureSpec, B: Iterable[int]) -> Tuple[Tuple[int, int], ...]:
    """K = {(i, j): i in B, 1 <= j <= m_i}; m_i must be a modest integer."""
    out = []
    for i in sorted(set(B)):
        mi = spec.m(i)
        if not isinstance(mi, int):
            raise ParameterDomainError("refined enumeration needs integer m_i")
        if mi > 10**6:
            raise ParameterDomainError("refined enumeration needs small m_i")
        out.extend((i, j) for j in range(1, mi + 1))
    return tuple(out)


def exact_refined_law(spec: StructureSpec, n: int, theta: Numeric = 1) -> ExactLaw:
    """Exact law of the refined process D(n) over complete refined vectors.

    Keys are tuples aligned with refined_index_set(spec, range(1, n+1)).
    Weights follow the refined product form: per-cell factor (1/i!)^k / k!
    for assemblies, 1 for multisets, 1(k <= 1) for selections, times
    theta^{sum k}.
    """
    if not isinstance(theta, (int, Fraction)):
        raise ParameterDomainError("the oracle needs a rational theta")
    theta = Fraction(theta)
    K = refined_index_set(spec, range(1, n + 1))
    weights: Dict[Vec, Fraction] = {}
    w = tuple(i for i, _ in K)
    for b in vectors_bounded(K, w, n):
        if sum(wi * bi for wi, bi in zip(w, b)) != n:
            continue
        wt = Fraction(1)
        ok = True
        for (i, _), k in zip(K, b):
            if k == 0:
                continue
            if spec.kind is Kind.ASSEMBLY:
                wt *= Fraction(1, math.factorial(i) ** k * math.factorial(k))
            elif spec.kind is Kind.SELECTION and k > 1:
                ok = False
                break
            wt *= theta ** k
        if ok and wt:
            weights[b] = wt
    total = sum(weights.values())
    if total == 0:
        raise ParameterDomainError(f"no refined structures of weight {n}")
    return ExactLaw(entries={b: v / total for b, v in weights.items()})


def restrict_refined_law(law: ExactLaw, spec: StructureSpec, n: int,
                         B: Iterable[int]) -> ExactLaw:
    """Marginal of the refined law onto the coordinates with sizes in B."""
    K_all = refined_index_set(spec, range(1, n + 1))
    bset = set(B)
    keep = [j for j, (i, _) in enumerate(K_all) if i in bset]
    return exact_functional_law(law, lambda b: tuple(b[j] for j in keep))
