"""Request lists for the three benchmark workloads.

Every workload is a fixed list of request classes; the seed only fills in
values drawn from fixed ranges (index sets B, custom m lists, the theta
assignment of the small exact tables, the esf kappa and the sampler's
RngState seeds), so
the classes and sizes, and with them the cost of a pass, do not move with
the seed.  Each request carries an `rid` that does not depend on the seed:
the known-failure ledger and the per-request tables key on it.

CLI requests are argv lists for `combstruct.cli.run`; the spec JSON files
they name are written by `write_specs` during set-up.  Library requests are
`SampleRequest` records for `combstruct.sample_components`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("analytic-cold", "exact-tables", "sample-warm")

# Family keys -> CLI spec JSON.  `meta` marks the logarithmic families, the
# only ones `limit` and `tv --heuristic` accept.
SPECS = {
    "permutations": ({"kind": "assembly", "builtin": "permutations"}, True),
    "esf(1/2)": ({"kind": "assembly", "builtin": "esf",
                  "params": {"kappa": "1/2"}}, True),
    "two_regular_graphs": ({"kind": "assembly",
                            "builtin": "two_regular_graphs"}, True),
    "set_partitions": ({"kind": "assembly", "builtin": "set_partitions"}, False),
    "mappings": ({"kind": "assembly", "builtin": "mappings"}, True),
    "integer_partitions": ({"kind": "multiset",
                            "builtin": "integer_partitions"}, False),
    "polynomials(2)": ({"kind": "multiset", "builtin": "polynomials",
                        "params": {"q": 2}}, True),
    "distinct_partitions": ({"kind": "selection",
                             "builtin": "distinct_partitions"}, False),
    "distinct_odd_partitions": ({"kind": "selection",
                                 "builtin": "distinct_odd_partitions"}, False),
    "squarefree_polynomials(2)": ({"kind": "selection",
                                   "builtin": "squarefree_polynomials",
                                   "params": {"q": 2}}, True),
}

# analytic-cold: float routes above the exact cutoff 512.
COLD_SIZES = {
    "permutations": (1000, 4000),
    "esf(1/2)": (1000, 4000),
    "two_regular_graphs": (1000, 4000),
    "set_partitions": (1000, 4000, 16000),
    "mappings": (200, 400),
    "integer_partitions": (1000, 4000, 16000),
    "polynomials(2)": (1000, 4000, 16000),
    "distinct_partitions": (1000, 2000),
    "distinct_odd_partitions": (1000, 2000),
    "squarefree_polynomials(2)": (1000, 2000),
}
CUSTOM_KINDS = ("assembly", "multiset", "selection")
CUSTOM_N = 1000

# exact-tables: the exact big-rational routes at n <= 512.
EXACT_FAMILIES = ("permutations", "mappings", "esf(1/2)", "set_partitions",
                  "integer_partitions", "polynomials(2)",
                  "distinct_partitions", "squarefree_polynomials(2)")
EXACT_COMMANDS = (("pofn",), ("moments", "1"), ("moments", "2"), ("prob-t",))
# Each (family, n) at the small sizes runs the four commands with this theta
# multiset.  At n = 128 the seed picks which command gets which theta; at
# n = 256, where theta = 1/2 costs up to 0.3 s more and those requests set
# the tail percentile, a fixed rotation gives each command theta = 1/2 for
# two families, so the tail does not move with the seed.
EXACT_THETAS = ("1", "2", "1/2", "1")
# n = 512 is too dear for the full matrix: one fixed (command, theta) per
# row, chosen so each command and each theta (including the rational 1/2,
# which an integer-only table would not cover) appears.
EXACT_512 = (
    ("permutations", ("pofn",), "1"),
    ("permutations", ("moments", "1"), "1/2"),
    ("mappings", ("moments", "2"), "1"),
    ("esf(1/2)", ("prob-t",), "2"),
    ("set_partitions", ("pofn",), "1"),
    ("integer_partitions", ("moments", "2"), "1/2"),
    ("polynomials(2)", ("pofn",), "2"),
    ("distinct_partitions", ("prob-t",), "1"),
    ("squarefree_polynomials(2)", ("moments", "1"), "1/2"),
)
ESF_SIZES = (128, 256)
KAPPAS = ("1", "2", "1/2")

# sample-warm: families with the x each one is warmed at, and the samples
# per request.  Counts are set so that every request class takes about
# 0.3 s on a 2-core Xeon (distinct_partitions at n = 1000 spends 0.24 s of
# that recomputing P(T_n = n)), which keeps the latency percentiles inside
# one population instead of on the edge between two.
SAMPLE_FAMILIES = {
    # key: (builtin factory name, args, x strategy or fixed x)
    "permutations": ("permutations", (), 1.0),
    "integer_partitions": ("integer_partitions", (), "integer_partition"),
    "set_partitions": ("set_partitions", (), "set_partition"),
    "distinct_partitions": ("distinct_partitions", (), "distinct_partition"),
    "esf(2)": ("esf", (2,), "exact_mean"),
}
SAMPLE_SIZES = (300, 1000)
SAMPLE_STREAMS = (1, 2)
SAMPLE_COUNTS = {  # (family, n, streams) -> count per request
    ("permutations", 300, 1): 45, ("permutations", 300, 2): 60,
    ("permutations", 1000, 1): 5, ("permutations", 1000, 2): 4,
    ("integer_partitions", 300, 1): 100, ("integer_partitions", 300, 2): 135,
    ("integer_partitions", 1000, 1): 11, ("integer_partitions", 1000, 2): 19,
    ("set_partitions", 300, 1): 350, ("set_partitions", 300, 2): 580,
    ("set_partitions", 1000, 1): 55, ("set_partitions", 1000, 2): 100,
    ("distinct_partitions", 300, 1): 70, ("distinct_partitions", 300, 2): 85,
    ("distinct_partitions", 1000, 1): 2, ("distinct_partitions", 1000, 2): 2,
    ("esf(2)", 300, 1): 40, ("esf(2)", 300, 2): 52,
    ("esf(2)", 1000, 1): 4, ("esf(2)", 1000, 2): 4,
}
SAMPLE_REPEATS = 5  # requests per class in one pass


@dataclass(frozen=True)
class CliRequest:
    rid: str            # seed-independent request id
    family: str
    command: str
    n: int
    argv: tuple         # argv for combstruct.cli.run
    theta: str = "1"
    kappa: Optional[str] = None


@dataclass(frozen=True)
class SampleRequest:
    rid: str
    family: str
    n: int
    count: int
    streams: int
    rng_seed: int


def _rng(seed: int, workload: str, pass_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_no}")


def custom_m(seed: int) -> dict:
    """Seeded m lists for the three custom specs (one per kind).

    Lengths come from [60, 80]; entries from [0, 3] (selections [1, 3], so
    that sum i m_i > 1.8 n and E T_n = n has a solution at n = 1000).
    """
    rng = random.Random(f"custom/{seed}")
    out = {}
    for kind in CUSTOM_KINDS:
        length = rng.randint(60, 80)
        lo = 1 if kind == "selection" else 0
        m = [rng.randint(lo, 3) for _ in range(length)]
        m[0] = max(m[0], 1)
        out[kind] = m
    return out


def spec_dicts(workload: str, seed: int) -> dict:
    """Spec key -> JSON dict for the spec files this workload reads."""
    if workload == "analytic-cold":
        out = {k: SPECS[k][0] for k in COLD_SIZES}
        for kind, m in custom_m(seed).items():
            out[f"custom-{kind}"] = {"kind": kind, "m": m}
        return out
    if workload == "exact-tables":
        return {k: SPECS[k][0] for k in EXACT_FAMILIES}
    return {}


def spec_path(workdir: str, key: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in key)
    return os.path.join(workdir, f"{safe}.json")


def write_specs(workload: str, seed: int, workdir: str) -> dict:
    """Write the spec files; returns key -> path."""
    paths = {}
    for key, d in spec_dicts(workload, seed).items():
        path = spec_path(workdir, key)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        paths[key] = path
    return paths


def _cold_pass(seed: int, paths: dict, pass_no: int) -> list:
    rng = _rng(seed, "analytic-cold", pass_no)
    reqs = []
    rows = [(fam, n, SPECS[fam][1]) for fam, sizes in COLD_SIZES.items()
            for n in sizes]
    rows += [(f"custom-{kind}", CUSTOM_N, False) for kind in CUSTOM_KINDS]
    for fam, n, meta in rows:
        spec = ("--spec", paths[fam], "--n", str(n))
        xflag = ("--choose-x", "exact_mean")
        btxt = ",".join(map(str, sorted(rng.sample(range(1, 11), 5))))
        cmds = [("choose-x", ("choose-x",) + spec + xflag),
                ("prob-t", ("prob-t",) + spec + xflag),
                ("tv", ("tv",) + spec + xflag + ("--B", btxt)
                 + (("--heuristic",) if meta else ()))]
        if meta:
            cmds.append(("limit", ("limit",) + spec + xflag))
        for cmd, argv in cmds:
            reqs.append(CliRequest(rid=f"{cmd} {fam} n={n}", family=fam,
                                   command=cmd, n=n, argv=argv))
    return reqs


def _exact_pass(seed: int, paths: dict, pass_no: int) -> list:
    rng = _rng(seed, "exact-tables", pass_no)
    reqs = []

    def add(fam, cmd, n, theta, tag):
        argv = (cmd[0], "--spec", paths[fam], "--n", str(n), "--theta", theta)
        if cmd[0] == "moments":
            argv += ("--j", "1..10", "--r", cmd[1])
        elif cmd[0] == "prob-t":
            argv += ("--choose-x", "exact_mean")
        name = " ".join(cmd) if cmd[0] != "moments" else f"moments r={cmd[1]}"
        reqs.append(CliRequest(rid=f"{name} {fam} n={n}{tag}", family=fam,
                               command=cmd[0], n=n, argv=argv, theta=theta))

    # n = 128 runs twice, so that the median request falls inside this
    # dense size class rather than on its border with n = 256.
    for n, tag in ((128, ""), (128, " #2"), (256, "")):
        for f, fam in enumerate(EXACT_FAMILIES):
            thetas = EXACT_THETAS[f % 4:] + EXACT_THETAS[:f % 4]
            if n == 128:
                thetas = rng.sample(thetas, len(thetas))
            for cmd, theta in zip(EXACT_COMMANDS, thetas):
                add(fam, cmd, n, theta, tag)
    for fam, cmd, theta in EXACT_512:
        add(fam, cmd, 512, theta, f" theta={theta}")
    for n in ESF_SIZES:
        kappa = rng.choice(KAPPAS)
        reqs.append(CliRequest(rid=f"esf n={n}", family="esf", command="esf",
                               n=n, argv=("esf", "--n", str(n), "--kappa", kappa),
                               kappa=kappa))
    reqs.append(CliRequest(rid="verify", family="verify", command="verify", n=0,
                           argv=("verify",)))
    return reqs


def _sample_pass(seed: int, pass_no: int) -> list:
    rng = _rng(seed, "sample-warm", pass_no)
    reqs = []
    for rep in range(SAMPLE_REPEATS):
        for fam in SAMPLE_FAMILIES:
            for n in SAMPLE_SIZES:
                for s in SAMPLE_STREAMS:
                    reqs.append(SampleRequest(
                        rid=f"sample {fam} n={n} streams={s} #{rep}",
                        family=fam, n=n, count=SAMPLE_COUNTS[(fam, n, s)],
                        streams=s, rng_seed=rng.randrange(1, 2**31)))
    return reqs


def requests(workload: str, seed: int, paths: dict, pass_no: int) -> list:
    """The request list of one pass, in the order it is sent.

    The CLI lists are put in one fixed shuffled order, the same for every
    seed, so that cheap and dear requests alternate through the pass and a
    slow spell of the machine does not fall on one size class only.  The
    sampler list is already interleaved class by class.
    """
    if workload == "sample-warm":
        return _sample_pass(seed, pass_no)
    if workload == "analytic-cold":
        reqs = _cold_pass(seed, paths, pass_no)
    elif workload == "exact-tables":
        reqs = _exact_pass(seed, paths, pass_no)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{workload}/order").shuffle(reqs)
    return reqs
