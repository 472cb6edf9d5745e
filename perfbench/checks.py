"""Output checks for benchmark requests.

Every check compares against a value the benchmark computes itself or
against an identity with a stated tolerance; none depends on the exact
digits of a float, so a change of summation order or of sampling method
still passes.  Each check returns None when the output is good and a short
reason otherwise.

Tolerances:
  * prob-t: relative gap between recursion and closed form <= 1e-6.
  * tv: -1e-12 <= lower <= exact + 1e-12 <= 1 + 1e-9.
  * choose-x: |E T_n - n| <= 1e-6 n.
  * moments and esf: closed forms to 1e-9 relative; sum_j j E C_j within
    1e-9 relative of n (esf) or not above it (moments).
  * exact tables: equal as exact integers/rationals.
  * samples: sum i a_i = n for every sample; mean K within 5 standard
    errors of E K, per batch and over all batches of a (family, n).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

PROB_T_TOL = 1e-6
TV_TOL = 1e-12
MEAN_RESIDUAL_TOL = 1e-6
REL_TOL = 1e-9
K_SIGMAS = 5.0

# Header rows of the CLI's TSV tables, which start a new table.
_HEADERS = {
    ("x", "mean_residual"), ("recursion", "closed_form", "rel_gap"),
    ("exact", "lower", "tail_term", "body_term"),
    ("exact", "lower", "tail_term", "body_term", "heuristic"),
    ("n_prob", "g_c_1", "rel_gap"), ("z", "g_c"), ("n", "p_theta"),
    ("j", "r", "moment"), ("j", "E_C_j"), ("check", "status", "detail"),
}


def _value(text: str):
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_tsv(text: str) -> list:
    """TSV output -> list of (columns, rows) tables, values parsed."""
    tables = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        fields = tuple(line.split("\t"))
        if fields in _HEADERS:
            tables.append((fields, []))
        elif not tables:
            raise ValueError(f"row before any table header: {line[:60]!r}")
        else:
            tables[-1][1].append([_value(f) for f in fields])
    return tables


def _finite_pos(v) -> bool:
    return isinstance(v, (int, float, Fraction)) and 0 < v < math.inf


# ---------------------------------------------------------------------------
# reference sequences for exact p_theta tables
# ---------------------------------------------------------------------------

def _rising(a: Fraction, n: int) -> list:
    out = [Fraction(1)]
    for k in range(n):
        out.append(out[-1] * (a + k))
    return out


def bell_triangle(n: int) -> list:
    """Bell numbers B_0..B_n by the Bell (Aitken) triangle."""
    bells = [1]
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return bells


def pentagonal_partitions(n: int) -> list:
    """Partition numbers p(0..n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def _stirling2_sums(n: int, theta: Fraction) -> list:
    """sum_k S(m, k) theta^k for m = 0..n (Touchard polynomials)."""
    out = [Fraction(1)]
    row = [1]  # S(m, 0..m)
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for k in range(1, m + 1):
            new[k] = k * (row[k] if k < len(row) else 0) + row[k - 1]
        row = new
        acc, pw = Fraction(0), Fraction(1)
        for k in range(m + 1):
            if row[k]:
                acc += row[k] * pw
            pw *= theta
        out.append(acc)
    return out


def _product_expansion(n: int, theta: Fraction, distinct: bool) -> list:
    """Coefficients of prod_i (1 - theta z^i)^-1 or prod_i (1 + theta z^i)."""
    c = [Fraction(0)] * (n + 1)
    c[0] = Fraction(1)
    for i in range(1, n + 1):
        if distinct:
            for s in range(n, i - 1, -1):
                c[s] += theta * c[s - i]
        else:
            for s in range(i, n + 1):
                c[s] += theta * c[s - i]
    return c


@lru_cache(maxsize=None)
def reference_ptheta(family: str, n: int, theta: Fraction):
    """p_theta(0..n) computed without the program, or None when the
    benchmark has no independent sequence for this family and theta."""
    if family == "permutations":
        return _rising(theta, n)
    if family == "esf(1/2)":
        return _rising(Fraction(1, 2) * theta, n)
    if family == "set_partitions":
        return bell_triangle(n) if theta == 1 else _stirling2_sums(n, theta)
    if family == "integer_partitions":
        if theta == 1:
            return pentagonal_partitions(n)
        return _product_expansion(n, theta, distinct=False)
    if family == "distinct_partitions":
        return _product_expansion(n, theta, distinct=True)
    if theta != 1:
        return None
    if family == "mappings":
        return [1] + [k ** k for k in range(1, n + 1)]
    if family == "polynomials(2)":
        return [2 ** k for k in range(n + 1)]
    if family == "squarefree_polynomials(2)":
        return [1, 2] + [2 ** k - 2 ** (k - 1) for k in range(2, n + 1)]
    return None


@lru_cache(maxsize=None)
def _esf_rising(k: Fraction, n: int) -> list:
    return _rising(k, n)


def esf_factorial_moment(k: Fraction, n: int, j: int, r: int) -> float:
    """E (C_j)_[r] under ESF(k): (k/j)^r n!/(n-jr)! k^(n-jr) / k^(n)."""
    if j * r > n:
        return 0.0
    ris = _esf_rising(k, n)
    val = (k / j) ** r * Fraction(math.factorial(n), math.factorial(n - j * r))
    return float(val * ris[n - j * r] / ris[n])


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def check_cli(req, text: str):
    """Check one CLI request's stdout; None when it is good."""
    tables = parse_tsv(text)
    cmd, n = req.command, req.n
    if cmd == "choose-x":
        (x, res), = tables[0][1]
        if not (_finite_pos(x) and 0 <= res <= MEAN_RESIDUAL_TOL * n):
            return f"choose-x x={x} residual={res}"
    elif cmd == "prob-t":
        (rec, clo, gap), = tables[0][1]
        if not (0 < rec <= 1 and 0 < clo <= 1):
            return f"prob-t out of (0, 1]: {rec}, {clo}"
        if not gap <= PROB_T_TOL:
            return f"prob-t rel_gap {gap} > {PROB_T_TOL}"
    elif cmd == "tv":
        row = tables[0][1][0]
        exact, lower = row[0], row[1]
        if not (-TV_TOL <= lower <= exact + TV_TOL <= 1 + 1e-9):
            return f"tv order violated: lower={lower} exact={exact}"
        if any(not (v >= 0) for v in row[2:]):
            return f"tv negative term: {row}"
    elif cmd == "limit":
        (npn, g1, gap), = tables[0][1]
        if not (_finite_pos(npn) and _finite_pos(g1) and 0 <= gap < math.inf):
            return f"limit values {npn}, {g1}, {gap}"
        if any(not (g >= 0) for z, g in tables[1][1]):
            return "limit density negative"
    elif cmd == "pofn":
        return _check_pofn(req, tables[0][1])
    elif cmd == "moments":
        return _check_moments(req, tables[0][1])
    elif cmd == "esf":
        return _check_esf(req, tables[0][1])
    elif cmd == "verify":
        bad = [row[0] for row in tables[0][1] if row[1] != "pass"]
        if bad:
            return f"verify failed: {bad}"
    return None


def _check_pofn(req, rows):
    if [r[0] for r in rows] != list(range(req.n + 1)):
        return "pofn rows are not k = 0..n"
    vals = [Fraction(r[1]) for r in rows]
    if vals[0] != 1 or any(v <= 0 for v in vals):
        return "pofn table not positive with p(0) = 1"
    ref = reference_ptheta(req.family, req.n, Fraction(req.theta))
    if ref is not None:
        for k, (got, want) in enumerate(zip(vals, ref)):
            if got != want:
                return f"pofn p({k}) differs from the reference sequence"
    return None


def _check_moments(req, rows):
    r = int(req.argv[req.argv.index("--r") + 1])
    if [row[0] for row in rows] != list(range(1, 11)):
        return "moments rows are not j = 1..10"
    vals = [float(row[2]) for row in rows]
    if any(v < -1e-12 for v in vals):
        return "negative factorial moment"
    if r == 1 and sum(j * v for j, v in zip(range(1, 11), vals)) > req.n * (1 + REL_TOL):
        return "sum_j j E C_j exceeds n"
    if req.family in ("permutations", "esf(1/2)"):
        k = Fraction(req.theta) * (1 if req.family == "permutations"
                                   else Fraction(1, 2))
        for j, v in zip(range(1, 11), vals):
            if not _rel_close(v, esf_factorial_moment(k, req.n, j, r)):
                return f"E (C_{j})_[{r}] = {v} differs from the ESF closed form"
    return None


def _check_esf(req, rows):
    n, k = req.n, Fraction(req.kappa)
    if [row[0] for row in rows] != list(range(1, n + 1)):
        return "esf rows are not j = 1..n"
    vals = [float(row[1]) for row in rows]
    if any(v < 0 for v in vals):
        return "negative E C_j"
    if not _rel_close(math.fsum(j * v for j, v in zip(range(1, n + 1), vals)), n):
        return "sum_j j E C_j != n"
    if not _rel_close(vals[0], float(k * n / (k + n - 1))):
        return "E C_1 differs from kappa n / (kappa + n - 1)"
    return None


def check_samples(batch, n: int):
    """Completeness of every sample in a batch."""
    for v in batch.samples:
        if sum(i * a for i, a in enumerate(v.a, start=1)) != n:
            return "incomplete sample: sum i a_i != n"
    return None


def k_gap(ks: list, expected_k: float, sd: float):
    """None when mean(ks) is within K_SIGMAS standard errors of E K."""
    se = sd / math.sqrt(len(ks))
    gap = abs(sum(ks) / len(ks) - expected_k)
    if gap > K_SIGMAS * max(se, 1e-12):
        return f"mean K {sum(ks) / len(ks):.4f} vs E K {expected_k:.4f} (se {se:.4f})"
    return None
