"""Command-line surface with deterministic, machine-readable output.

Commands: tv, prob-t, pofn, moments, sample, choose-x, limit, esf,
heuristic, verify.  Output is TSV by default ('#'-prefixed header lines
carry the spec hash, parameters, and version; floats use 12 significant
digits) or JSON (17 significant digits).  Exit codes: 2 flag errors
(argparse), 3 parameter-domain errors, 4 numeric guards.  Byte-identical
output for identical inputs and seed.  CS_THREADS (an integer >= 1, else
exit 3) sets the number of sampling streams, which with the seed fix the
samples; sampling runs on the table route, which draws every stream in one
thread.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .errors import NumericGuardError, ParameterDomainError
from . import structures as st
from .indep_process import TiltedParams, XStrategy, choose_x, sum_moments
from . import sumdist
from . import tv_engine
from . import moments as mom
from . import limits
from . import sampler as smp


# ---------------------------------------------------------------------------
# parsing and formatting helpers
# ---------------------------------------------------------------------------

def parse_index_set(text: str) -> sumdist.IndexSet:
    """Range/list syntax: '1..5,7' -> (1,2,3,4,5,7); '' -> ().  The chunks
    are read as ranges into one int64 array, with no set of Python ints."""
    parts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = chunk.split("..")
            parts.append(range(int(lo), int(hi) + 1))
        else:
            parts.append((int(chunk),))
    return sumdist.index_set(itertools.chain.from_iterable(parts))


def parse_number(text: str):
    """'1/2' -> Fraction, '2' -> int, '0.5' -> float."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


# argparse type= converters: a value they reject is a flag error (exit 2)

def _number_flag(text: str):
    try:
        return parse_number(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from exc


def _index_set_flag(text: str) -> str:
    """Checks the index-set syntax and keeps the text, which tv and
    heuristic echo in their headers."""
    try:
        parse_index_set(text)
    except (ValueError, ParameterDomainError) as exc:
        raise argparse.ArgumentTypeError(f"invalid index set {text!r}: {exc}") from exc
    return text


def _int_flag(low: int):
    """A converter for an int flag whose values start at `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _int_tuple_flag(text: str) -> tuple:
    return tuple(int(t) for t in text.split(","))


def fmt(v, prec: int) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), f".{prec}g")
    return str(v)


def emit_json(obj, prec: int) -> str:
    """obj as JSON: dicts and sequences as objects and arrays, None as
    null, every scalar as its fmt text, bare for bools, ints and finite
    floats and quoted otherwise (Fractions, non-finite floats, text)."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{emit_json(v, prec)}"
                         for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(emit_json(v, prec) for v in obj) + "]"
    if obj is None:
        return "null"
    text = fmt(obj, prec)
    bare = isinstance(obj, (int, np.integer)) or (
        isinstance(obj, (float, np.floating)) and math.isfinite(obj))
    return text if bare else json.dumps(text)


class Output:
    def __init__(self, args, spec: Optional[st.StructureSpec]):
        self.format = args.format
        self.prec = args.precision or (17 if self.format == "json" else 12)
        self.header: list[tuple[str, str]] = [("version", __version__)]
        if spec is not None:
            self.header.append(("spec", f"{spec.spec_hash()} {spec.name}"))
        self.sections: list[tuple[list[str], list[list]]] = []
        self.exit_code = 0

    def add_header(self, key: str, value: str):
        self.header.append((key, value))

    def table(self, columns: list[str], rows: list[list]):
        self.sections.append((columns, rows))

    def render(self) -> str:
        if self.format == "json":
            doc = {"header": dict(self.header)}
            for idx, (cols, rows) in enumerate(self.sections):
                doc[f"table{idx}" if idx else "table"] = [
                    dict(zip(cols, row)) for row in rows]
            return emit_json(doc, self.prec) + "\n"
        lines = [f"# {k}\t{v}" for k, v in self.header]
        for cols, rows in self.sections:
            lines.append("\t".join(cols))
            for row in rows:
                lines.append("\t".join(fmt(v, self.prec) for v in row))
        return "\n".join(lines) + "\n"


def _load_spec(args) -> st.StructureSpec:
    if not getattr(args, "spec", None):
        raise ParameterDomainError("--spec FILE is required")
    return st.load_spec(args.spec)


def _params_for(args, spec: st.StructureSpec, n: int) -> TiltedParams:
    theta = args.theta
    if args.x is not None:
        params = TiltedParams(x=args.x, theta=theta)
    else:
        strategy = args.choose_x or "exact_mean"
        params = TiltedParams(x=choose_x(spec, n, theta, strategy), theta=theta)
    return params.validate(spec, n)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_tv(args) -> Output:
    spec = _load_spec(args)
    n = args.n
    B = parse_index_set(args.B)
    params = _params_for(args, spec, n)
    out = Output(args, spec)
    out.add_header("params", f"n={n} x={params.fx!r} theta={params.ftheta!r} "
                             f"B={args.B}")
    want_heur = args.heuristic and spec.meta is not None
    rep = tv_engine.tv_CB_ZB(spec, B, n, params, with_heuristic=want_heur)
    cols = ["exact", "lower", "tail_term", "body_term"]
    row = [rep.exact, rep.lower, rep.tail_term, rep.body_term]
    if rep.heuristic is not None:
        cols.append("heuristic")
        row.append(rep.heuristic)
    out.table(cols, [row])
    return out


def cmd_prob_t(args) -> Output:
    spec = _load_spec(args)
    n = args.n
    params = _params_for(args, spec, n)
    out = Output(args, spec)
    out.add_header("params", f"n={n} x={params.fx!r} theta={params.ftheta!r}")
    rec = sumdist.prob_T_eq_n(spec, n, params, method="recursion")
    clo = sumdist.prob_T_eq_n(spec, n, params, method="closed_form")
    gap = abs(rec - clo) / max(rec, clo) if max(rec, clo) > 0 else 0.0
    out.table(["recursion", "closed_form", "rel_gap"], [[rec, clo, gap]])
    return out


def cmd_pofn(args) -> Output:
    spec = _load_spec(args)
    n = args.n
    theta = args.theta
    out = Output(args, spec)
    out.add_header("params", f"n={n} theta={theta}")
    rows = []
    if st.exact_route(n, theta):
        tab = st.ptheta_table(spec, n, theta)
        for k in range(n + 1):
            rows.append([k, tab[k]])
    else:
        logs = st.log_ptheta_table(spec, n, theta)
        for k in range(n + 1):
            rows.append([k, _from_log(logs[k], out.prec)])
    out.table(["n", "p_theta"], rows)
    return out


def _from_log(l: float, prec: int):
    """e^l: a float below e^700, else the decimal text of e^l correctly
    rounded to prec significant digits (it is beyond double range)."""
    if l == -math.inf:
        return 0.0
    if l < 700:
        return math.exp(l)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = prec, decimal.MAX_EMAX
        return format(decimal.Decimal(l).exp().normalize(), "g")


def cmd_moments(args) -> Output:
    spec = _load_spec(args)
    n = args.n
    theta = args.theta
    js = parse_index_set(args.j) if args.j else range(1, n + 1)
    out = Output(args, spec)
    out.add_header("params", f"n={n} theta={theta} r={args.r}")
    params = None if st.exact_route(n, theta) else TiltedParams(
        choose_x(spec, n, theta, "exact_mean"), theta)  # x once, not once per j
    rows = [[j, args.r, mom.factorial_moment_single(spec, n, j, args.r,
                                                    params, theta)]
            for j in js]
    out.table(["j", "r", "moment"], rows)
    return out


def cmd_sample(args) -> Output:
    spec = _load_spec(args)
    n = args.n
    params = _params_for(args, spec, n)
    raw = os.environ.get("CS_THREADS", "1")
    streams = int(raw) if raw.strip().isdecimal() else 0
    if streams < 1:
        raise ParameterDomainError(f"CS_THREADS must be an integer >= 1: {raw!r}")
    p_exact, blocks = smp.sample_blocks(spec, n, params, args.samples,
                                        smp.RngState(args.seed),
                                        streams=streams)
    # each block of counts is formatted and summed, then dropped: no
    # sample is held as an n-tuple
    rows, columns = [], {}
    for a in blocks:
        rows += _sample_texts(a)
        for name, col in smp.block_statistics(a).items():
            columns.setdefault(name, []).extend(col)
    stats = smp.StatsTable(columns).summary()
    out = Output(args, spec)
    out.add_header("params", f"n={n} x={params.fx!r} theta={params.ftheta!r}")
    out.add_header("seed", f"{args.seed} streams={streams}")
    out.add_header("trials", f"{args.samples} accepted={args.samples} "
                             f"exact_acceptance={p_exact!r} method=table")
    out.table(["sample"], rows)
    out.table(["stat", "mean", "var", "se"],
              [[k, s["mean"], s["var"], s["se"]] for k, s in stats.items()])
    return out


def _sample_texts(a: np.ndarray) -> list:
    """Each row of a block of counts, a[s, i-1] = a_i, as the one-cell row
    `sample` prints: "i:a_i" for every a_i > 0, i ascending, space-joined."""
    s, i = np.nonzero(a)  # row by row, i ascending in each
    parts = [f"{j}:{c}" for j, c in zip((i + 1).tolist(), a[s, i].tolist())]
    ends = np.cumsum(np.count_nonzero(a, axis=1)).tolist()
    return [[" ".join(parts[lo:hi])] for lo, hi in zip([0] + ends, ends)]


def cmd_choose_x(args) -> Output:
    spec = _load_spec(args)
    n = args.n
    theta = args.theta
    strategy = args.choose_x or "exact_mean"
    x = choose_x(spec, n, theta, strategy)
    res = abs(sum_moments(spec, n, TiltedParams(x=x, theta=theta)).mean - n)
    out = Output(args, spec)
    out.add_header("params", f"n={n} theta={theta} strategy={strategy}")
    out.table(["x", "mean_residual"], [[x, res]])
    return out


def cmd_limit(args) -> Output:
    spec = _load_spec(args)
    n = args.n
    params = _params_for(args, spec, n)
    rep = limits.limit_law_check(spec, n, params, ecdf_samples=args.ecdf,
                                 seed=args.seed)
    out = Output(args, spec)
    out.add_header("params", f"n={n} x={params.fx!r} theta={params.ftheta!r} "
                             f"kappa_eff={rep.kappa_eff!r} c={rep.c!r}")
    out.table(["n_prob", "g_c_1", "rel_gap"],
              [[rep.prob_times_n, rep.predicted_g1, rep.rel_gap]])
    law = limits.LimitLaw(kappa=rep.kappa_eff, c=rep.c)
    zs = [k / 20.0 for k in range(21)]
    out.table(["z", "g_c"], [[z, limits.limit_density(law, z)] for z in zs])
    if rep.cdf_rows:
        out.table(["z", "empirical_cdf", "predicted_cdf"],
                  [list(r) for r in rep.cdf_rows])
    return out


def cmd_esf(args) -> Output:
    kappa = args.kappa
    n = args.n
    out = Output(args, None)
    out.add_header("params", f"n={n} kappa={kappa}")
    if args.a:
        out.table(["pmf"], [[mom.esf_pmf(n, kappa, args.a)]])
    rows = [[j, mom.esf_moment(n, kappa, {j: 1})] for j in range(1, n + 1)]
    out.table(["j", "E_C_j"], rows)
    return out


def cmd_heuristic(args) -> Output:
    spec = _load_spec(args)
    B = parse_index_set(args.B)
    theta = args.theta
    out = Output(args, spec)
    out.add_header("params", f"theta={theta} B={args.B}")
    rows = []
    n = args.n
    for _ in range(args.doublings + 1):
        params = _params_for(args, spec, n)
        rep = tv_engine.tv_CB_ZB(spec, B, n, params, with_heuristic=True)
        rows.append([n, rep.exact, rep.heuristic, rep.exact / rep.heuristic
                     if rep.heuristic else math.inf])
        n *= 2
    out.table(["n", "exact", "heuristic", "ratio"], rows)
    return out


def cmd_verify(args) -> Output:
    from . import verify
    out = Output(args, None)
    results = verify.run_all()
    rows = [[name, "pass" if ok else "FAIL", detail] for name, ok, detail in results]
    out.table(["check", "status", "detail"], rows)
    if any(not ok for _, ok, _ in results):
        out.exit_code = 4
    return out


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (building it costs about
    forty times a parse)."""
    top = argparse.ArgumentParser(prog="combstruct", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, spec=True, n=True, x=True, strategy=True):
        if spec:
            p.add_argument("--spec", help="structure spec JSON file")
        if n:
            p.add_argument("--n", type=int, required=True)
        if x:
            p.add_argument("--x", type=_number_flag, default=None,
                           help="free parameter x")
        if strategy:
            p.add_argument("--choose-x", dest="choose_x", default=None,
                           choices=[s.value for s in XStrategy])
        p.add_argument("--theta", type=_number_flag, default="1")
        p.add_argument("--format", choices=["tsv", "json"], default="tsv")
        p.add_argument("--precision", type=_int_flag(1), default=None)

    p = sub.add_parser("tv", help="exact d_TV(C_B, Z_B) report")
    common(p)
    p.add_argument("--B", type=_index_set_flag, required=True,
                   help="index set, e.g. '1..5,7'")
    p.add_argument("--heuristic", action="store_true")
    p.set_defaults(func=cmd_tv)

    p = sub.add_parser("prob-t", help="P(T_n = n) by recursion and closed form")
    common(p)
    p.set_defaults(func=cmd_prob_t)

    p = sub.add_parser("pofn", help="p_theta(k) table for k = 0..n")
    common(p, x=False, strategy=False)
    p.set_defaults(func=cmd_pofn)

    p = sub.add_parser("moments", help="falling-factorial moment table")
    common(p, x=False, strategy=False)
    p.add_argument("--j", type=_index_set_flag, default=None,
                   help="sizes, e.g. '1..10'")
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("sample", help="exact samples of C(n) + statistics")
    common(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("choose-x", help="solve or look up the free parameter")
    common(p, x=False)
    p.set_defaults(func=cmd_choose_x)

    p = sub.add_parser("limit", help="limit-law density and local-limit check")
    common(p)
    p.add_argument("--ecdf", type=int, default=0,
                   help="samples for the empirical cdf comparison")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("esf", help="Ewens pmf/moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=_number_flag, required=True)
    p.add_argument("--a", type=_int_tuple_flag, default=None,
                   help="component vector '2,0,1'")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--precision", type=_int_flag(1), default=None)
    p.set_defaults(func=cmd_esf)

    p = sub.add_parser("heuristic", help="heuristic vs exact d_TV trend")
    common(p)
    p.add_argument("--B", type=_index_set_flag, required=True)
    p.add_argument("--doublings", type=_int_flag(0), default=0)
    p.set_defaults(func=cmd_heuristic)

    p = sub.add_parser("verify", help="oracle cross-check suite at small n")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--precision", type=_int_flag(1), default=None)
    p.set_defaults(func=cmd_verify)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "n", 1) < 1:
            raise ParameterDomainError("n must be >= 1")
        out = args.func(args)
        sys.stdout.write(out.render())
        return out.exit_code
    except ParameterDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericGuardError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
