"""combstruct benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload analytic-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the program is imported from its
`src/`.  For one workload the script times set-up in SETUP_SAMPLES fresh
interpreters (the last of which goes on to run the requests), then prints a
report and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
is traced and the metrics are the per-layer ones.  `--workload all` runs
every workload (and with --trace 1 an untraced and a traced run of each,
to report the tracing overhead); its JSON keys are prefixed by workload.

A pass is the fixed request list of a workload; a run makes
max(1, round(seconds / NOMINAL_PASS_S)) passes, so the work measured, and
every count, depends only on the seed and --seconds.  All the figures are
per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NOMINAL_PASS_S = 30.0   # one pass of each workload, 2-core Xeon
SETUP_SAMPLES = 3       # fresh interpreters timed to the first request
DEADLINE_S = 170.0      # a run must end within 180 s
TAIL_BEYOND = 10        # the tail percentile leaves >= 10 requests beyond it



def _declared() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in doc[key]}
                 for key in ("end_to_end", "per_layer"))

# Per-layer metrics read from the span table: (metric, column, span name),
# column "s" (inclusive time), "self_s" (self time) or "calls".
# LAYER_COUNTS are read from the tracer counts; the rest are derived in
# `per_layer`.
LAYER_SPANS = (
    ("indep_process.log_m_array.s", "s", "indep_process.log_m_array"),
    ("indep_process.choose_x.s", "s", "indep_process.choose_x"),
    ("indep_process.pmf_array.s", "s", "indep_process.pmf_array"),
    ("sumdist.weighted_sum_pmf.recursion.s", "s",
     "sumdist.weighted_sum_pmf.recursion"),
    ("sumdist.weighted_sum_pmf.convolution.s", "s",
     "sumdist.weighted_sum_pmf.convolution"),
    ("sumdist.prob_T_eq_n.s", "s", "sumdist.prob_T_eq_n"),
    ("structures.ptheta_table.s", "s", "structures.ptheta_table"),
    ("structures.log_ptheta_table.s", "s", "structures.log_ptheta_table"),
    ("structures.load_spec.s", "s", "structures.load_spec"),
    ("moments.factorial_moment_single.self_s", "self_s",
     "moments.factorial_moment_single"),
    ("tv_engine.tv_CB_ZB.self_s", "self_s", "tv_engine.tv_CB_ZB"),
    ("tv_engine.tv_heuristic.s", "s", "tv_engine.tv_heuristic"),
    ("limits.limit_density.s", "s", "limits.limit_density"),
    ("limits.limit_density.calls", "calls", "limits.limit_density"),
    ("structures.ptheta_table.calls", "calls", "structures.ptheta_table"),
    ("sampler.sample_components.self_s", "self_s",
     "sampler.sample_components"),
    ("verify.run_all.s", "s", "verify.run_all"),
    ("oracle.exact_joint_law.s", "s", "oracle.exact_joint_law"),
    ("cli.render.s", "s", "cli.render"),
    ("cli.run.self_s", "self_s", "cli.run"),
)
# Counts derived from call arguments by a formula (see tracing.py), not
# measured; the report labels them.
COMPUTED = {"sumdist.recursion.madds", "sumdist.convolution.madds",
            "structures.ptheta_table.terms", "sampler.uniforms",
            "sampler.uniform_bytes"}
LAYER_COUNTS = (
    "indep_process.log_m_array.cold_calls", "indep_process.choose_x.mean_evals",
    "indep_process.pmf_array.terms", "indep_process.z_law.calls",
    "sumdist.recursion.madds", "sumdist.convolution.madds",
    "structures.ptheta_table.cold_calls", "structures.ptheta_table.terms",
    "sampler.trials", "sampler.accepted", "sampler.uniforms",
    "cli.render.bytes",
)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    """HEAD of a git checkout at ROOT, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# running the worker
# ---------------------------------------------------------------------------

class RunError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: with the sampler's two streams no more than two
    # threads compute at once on a 2-core machine.  No .pyc files are
    # written, so every set-up compiles the same sources.  A fixed glibc
    # mmap threshold returns every array above 1 MiB to the system when it
    # is freed; with the default sliding threshold the peak RSS of the
    # sampler's per-thread blocks varied by 20% with thread timing.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", MALLOC_MMAP_THRESHOLD_="1048576")
    return env


def run_workload(workload: str, seed: int, passes: int, trace: int,
                 deadline: float) -> tuple:
    """(set-up samples, reference-loop times around each, worker result)."""
    work = os.path.join(ROOT, ".perfbench_work", f"{os.getpid()}-{workload}")
    setups, setup_ref = [], []
    result = None
    try:
        for k in range(SETUP_SAMPLES):
            probe = k < SETUP_SAMPLES - 1
            cmd = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--passes", str(passes), "--trace", str(trace),
                   "--workdir", os.path.join(work, str(k))]
            if probe:
                cmd.append("--probe")
            setup_ref.append(calibrate.reference_times(calibrate.SETUP_LOOPS))
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                    cwd=ROOT, env=_worker_env())
            try:
                first = proc.stdout.readline()
                setups.append(time.perf_counter() - t0)
                out, _ = proc.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RunError(f"{workload}: worker passed the deadline")
            if first.strip() != "ready" or proc.returncode != 0:
                raise RunError(f"{workload}: worker exited with "
                               f"{proc.returncode} before finishing")
            setup_ref[-1] += json.loads(out.splitlines()[0])
            if not probe:
                result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(work))
    return setups, setup_ref, result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _failed(rec) -> bool:
    return rec["status"] != 0 or bool(rec.get("check"))


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of `values`.

    A weighted mean of the order statistics with Beta((n+1)q, (n+1)(1-q))
    weights.  Unlike the middle order statistic alone it does not jump
    when one request of the mix crosses the middle, which on a mix of
    request classes with gaps between their latencies it otherwise does.
    """
    from scipy.special import betainc
    v = sorted(values)
    n = len(v)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return math.fsum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(v))


def latency_metrics(records, lats) -> dict:
    """p50 and tail of `lats`, a failed request ranking above every success.

    `lats` are the latencies of `records`, raw or speed-corrected."""
    worst = max(lats)
    ranked = sorted(worst if _failed(r) else x for r, x in zip(records, lats))
    n = len(ranked)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return {"req_p50_s": hd_quantile(ranked, 0.5), "req_tail_s": ranked[idx],
            "tail_pct": 100.0 * (idx + 1) / n, "requests": n}


def request_speeds(res) -> list:
    """Speed factor of each request, from the reference loops run just
    before and just after it (see calibrate.py)."""
    ref = res["ref_s"]
    return [calibrate.speed_factor(ref[i:i + 2])
            for i in range(len(res["records"]))]


def end_to_end(setups, res, workload, setup_speeds=None, speeds=None) -> dict:
    """The end-to-end metrics; raw with the default speed factors of 1."""
    recs = res["records"]
    setup_speeds = setup_speeds or [1.0] * len(setups)
    speeds = speeds or [1.0] * len(recs)
    lats = [r["latency"] * f for r, f in zip(recs, speeds)]
    lat = latency_metrics(recs, lats)
    if workload == "sample-warm":
        done = sum(r.get("accepted", 0) for r in recs)
    else:
        done = sum(1 for r in recs if not _failed(r))
    return {"setup_s": statistics.median(t * f for t, f in
                                          zip(setups, setup_speeds)),
            "req_p50_s": lat["req_p50_s"], "req_tail_s": lat["req_tail_s"],
            "throughput_per_s": done / sum(lats),
            "peak_rss_mb": res["peak_rss_mb"]}


def per_layer(res, passes, speeds) -> dict:
    """Per-layer metrics; times and rates corrected by the run's median
    request speed factor, and trace.req_p50_s by each request's own."""
    spans, counts = res["spans"], res["counts"]
    f = statistics.median(speeds)
    out = {}
    for name, kind, key in LAYER_SPANS:
        out[name] = spans.get(key, {}).get(kind, 0.0) / passes
        if kind != "calls":
            out[name] *= f
    for name in LAYER_COUNTS:
        out[name] = counts.get(name, 0.0) / passes
    trials = counts.get("sampler.trials", 0.0)
    expected = counts.get("sampler.expected_accepted", 0.0)
    wall = spans.get("sampler.sample_components", {}).get("s", 0.0)
    out["sampler.acceptance"] = counts.get("sampler.accepted", 0.0) / trials if trials else 0.0
    out["sampler.acceptance_vs_exact"] = (counts.get("sampler.accepted", 0.0) / expected
                                          if expected else 0.0)
    out["sampler.trials_per_s"] = trials / (wall * f) if wall else 0.0
    out["sampler.uniform_bytes"] = 8 * out["sampler.uniforms"]
    out["sampler.cpu_util"] = counts.get("sampler.cpu_s", 0.0) / wall if wall else 0.0
    recs = res["records"]
    for code in (2, 3, 4):
        out[f"cli.exit.{code}"] = sum(r["status"] == code for r in recs) / passes
    out["cli.runtime_warnings"] = sum(r["warnings"] for r in recs) / passes
    lats = [r["latency"] * g for r, g in zip(recs, speeds)]
    out["trace.req_p50_s"] = latency_metrics(recs, lats)["req_p50_s"]
    out["trace.coverage"] = res["root_s"] / sum(r["latency"] for r in recs)
    out["trace.spans"] = res["span_count"] / passes
    return out


# ---------------------------------------------------------------------------
# ledger of known failures
# ---------------------------------------------------------------------------

def load_ledger() -> dict:
    with open(os.path.join(HERE, "known_failures.json"), encoding="utf-8") as fh:
        return {e["rid"]: e for e in json.load(fh)}


def ledger_report(records, ledger) -> dict:
    failed = {}
    for r in records:
        if _failed(r):
            failed.setdefault(r["rid"], r)
    # A ledger request counts as known only while it fails the way it did:
    # by exit code or exception.  A wrong output is never known.
    known = sorted(rid for rid, r in failed.items()
                   if rid in ledger and not r.get("check"))
    new = sorted(rid for rid in failed if rid not in known)
    seen = {r["rid"] for r in records}
    fixed = sorted(rid for rid in ledger if rid in seen and rid not in failed)
    return {"failed": failed, "known": known, "new": new, "fixed": fixed}


def _why(rec) -> str:
    if rec.get("check"):
        return f"check: {rec['check']}"
    status = rec["status"]
    what = f"exit {status}" if isinstance(status, int) else f"raised {status}"
    return f"{what}: {rec.get('stderr', '')}".rstrip(": ")


# ---------------------------------------------------------------------------
# one workload, end to end
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, deadline) -> dict:
    passes = max(1, round(seconds / NOMINAL_PASS_S))
    setups, setup_ref, res = run_workload(workload, seed, passes, trace,
                                          deadline)
    recs = res["records"]
    led = ledger_report(recs, load_ledger())
    setup_speeds = [calibrate.speed_factor(r) for r in setup_ref]
    speeds = request_speeds(res)
    out = {"workload": workload, "passes": passes, "setups": setups,
           "res": res, "ledger": led,
           "speed": {"setup": statistics.median(setup_speeds),
                     "run": statistics.median(speeds)},
           "raw": end_to_end(setups, res, workload),
           "attempted": len(recs),
           "failed": sum(_failed(r) for r in recs),
           "correct": not led["new"],
           "e2e": end_to_end(setups, res, workload, setup_speeds, speeds),
           "lat": latency_metrics(recs, [r["latency"] for r in recs])}
    if trace:
        out["layers"] = per_layer(res, passes, speeds)
    return out


def print_report(m, seed, trace, env):
    w = m["workload"]
    e2e_units, layer_units = _declared()
    print(f"== {w}  seed={seed} trace={'on' if trace else 'off'} "
          f"passes={m['passes']} requests={m['attempted']}")
    print(f"   env: nproc={env['nproc']} cpu={env['cpu']!r} "
          f"python={m['res']['versions']['python']} "
          f"numpy={m['res']['versions']['numpy']} "
          f"scipy={m['res']['versions']['scipy']} commit={env['commit']}")
    sp = m["speed"]
    print(f"   speed factor (calibrate.py): set-up {sp['setup']:.4f} (median), "
          f"requests {sp['run']:.4f} (median); times below are raw times "
          f"times the factor, rates raw rates over it; req_p50_s is a "
          f"Harrell-Davis median")
    for name, value in m["e2e"].items():
        extra = ""
        if value != m["raw"][name]:
            extra = f"  (raw {m['raw'][name]:.6g})"
        if name == "req_tail_s":
            extra += f"  (p{m['lat']['tail_pct']:.1f} of {m['lat']['requests']})"
        if name == "setup_s":
            extra += "  (median of " + ", ".join(f"{s:.3f}" for s in m["setups"]) + ")"
        if name == "throughput_per_s":
            extra += ("  (accepted samples per second of sampler calls)"
                     if w == "sample-warm" else
                     "  (good requests per second of request time)")
        print(f"   {name:18s} {value:12.6g} {e2e_units[name]}{extra}")
    frac = m["failed"] / m["attempted"]
    print(f"   {'failed_frac':18s} {frac:12.6g} 1  ({m['failed']} of {m['attempted']})")
    led = m["ledger"]
    for rid in led["known"]:
        print(f"     known failure: {rid}: {_why(led['failed'][rid])}")
    for rid in led["new"]:
        print(f"     NEW FAILURE:   {rid}: {_why(led['failed'][rid])}")
    for rid in led["fixed"]:
        print(f"     ledger entry now passes: {rid}")
    texts = {}
    for r in m["res"]["records"]:
        for t in r["warning_texts"]:
            texts.setdefault(t, set()).add(r["family"])
    nwarn = sum(r["warnings"] for r in m["res"]["records"])
    print(f"   {'runtime_warnings':18s} {nwarn / m['passes']:12.6g} count per pass")
    for t, fams in sorted(texts.items()):
        print(f"     {t!r} from {', '.join(sorted(fams))}")
    if "layers" in m:
        print("   per-layer (per pass):")
        for name, value in m["layers"].items():
            label = "  (computed)" if name in COMPUTED else ""
            print(f"     {name:42s} {value:14.6g} {layer_units[name]}{label}")
        print("   top self time by request family (raw s per pass):")
        for fam, layers in sorted(m["res"]["by_family"].items()):
            total = sum(layers.values())
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
            desc = ", ".join(f"{k} {v / total:.0%}" for k, v in top)
            print(f"     {fam:28s} {total / m['passes']:8.3f} s: {desc}")


def print_requests(m):
    classes = {}
    for r in m["res"]["records"]:
        classes.setdefault(r["rid"].split(" #")[0], []).append(r)
    print("   median raw latency per request class:")
    for rid, rs in sorted(classes.items()):
        lat = statistics.median(r["latency"] for r in rs)
        bad = sum(_failed(r) for r in rs)
        print(f"     {lat:9.4f} s  {rid}" + (f"  ({bad} failed)" if bad else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "combstruct", "__init__.py")):
        print(f"no combstruct sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    env = {"nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _commit()}
    try:
        if args.workload != "all":
            deadline = time.monotonic() + DEADLINE_S
            m = measure(args.workload, args.seed, args.seconds, args.trace,
                        deadline)
            print_report(m, args.seed, args.trace, env)
            units = _declared()[1 if args.trace else 0]
            metrics = m["layers"] if args.trace else m["e2e"]
            if set(metrics) != set(units):
                raise RunError("metrics differ from BENCHMARK.json: "
                               f"{sorted(set(metrics) ^ set(units))}")
            result = {"correct": m["correct"], "attempted": m["attempted"],
                      "failed": m["failed"],
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}
        else:
            result = run_all(args, env)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


def run_all(args, env) -> dict:
    """Every workload; with --trace 1 also the tracing overhead."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for w in WORKLOADS:
        runs = [0, 1] if args.trace else [0]
        got = {}
        for t in runs:
            deadline = time.monotonic() + DEADLINE_S
            got[t] = m = measure(w, args.seed, args.seconds, t, deadline)
            print_report(m, args.seed, t, env)
            if not t:
                print_requests(m)
            attempted += m["attempted"]
            failed += m["failed"]
            correct &= m["correct"]
        e2e_units, layer_units = _declared()
        for k, v in got[0]["e2e"].items():
            metrics[f"{w}.{k}"] = {"value": v, "unit": e2e_units[k]}
        if args.trace:
            for k, v in got[1]["layers"].items():
                metrics[f"{w}.{k}"] = {"value": v, "unit": layer_units[k]}
            over = got[1]["layers"]["trace.req_p50_s"] - got[0]["e2e"]["req_p50_s"]
            metrics[f"{w}.trace.overhead_p50_s"] = {"value": over, "unit": "s"}
            print(f"   tracing overhead on {w}: traced req_p50_s - untraced "
                  f"req_p50_s = {over:+.4f} s")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
