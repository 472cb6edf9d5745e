"""One workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --passes P --trace T \
        --workdir DIR [--probe]

Set-up (import combstruct, write the spec files, build the request list
and, on sample-warm, build and warm the specs) ends with the line "ready"
on stdout; `run.py` times a fresh interpreter up to that line as one
set-up sample.  The next line holds the reference-loop times taken just
after it (calibrate.py).  With --probe the worker stops there.  Otherwise
it sends the requests one at a time (a closed loop with one client),
checks every output, and prints one JSON line with the per-request
records, the reference-loop times, peak RSS, versions and, with
--trace 1, the per-layer span table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402


def setup(workload: str, seed: int, passes: int, workdir: str):
    import combstruct  # noqa: F401
    import combstruct.cli  # noqa: F401
    import combstruct.verify  # noqa: F401
    os.makedirs(workdir, exist_ok=True)
    paths = wl.write_specs(workload, seed, workdir)
    reqs = [wl.requests(workload, seed, paths, p) for p in range(passes)]
    warm = _warm_specs() if workload == "sample-warm" else {}
    return reqs, warm


def _warm_specs() -> dict:
    """(family, n) -> (spec, params): x chosen and sampler tables built."""
    import combstruct as cs
    out = {}
    for fam, (factory, fargs, how) in wl.SAMPLE_FAMILIES.items():
        for n in wl.SAMPLE_SIZES:
            spec = cs.BUILTINS[factory](*fargs)
            x = cs.choose_x(spec, n, 1, how) if isinstance(how, str) else how
            params = cs.TiltedParams(x=x, theta=1)
            cs.sample_components(spec, n, params, count=0, rng=cs.RngState(0))
            out[(fam, n)] = (spec, params)
    return out


def _run_cli(req):
    from combstruct import cli
    out, err = io.StringIO(), io.StringIO()
    status = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                status = cli.run(list(req.argv))
            except Exception as exc:  # a raise is a failed request, not a crash
                status = type(exc).__name__
            t1 = time.perf_counter()
    return t1 - t0, status, caught, out.getvalue(), err.getvalue()


def _run_sample(req, warm):
    import combstruct as cs
    spec, params = warm[(req.family, req.n)]
    batch, status = None, 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            batch = cs.sample_components(spec, req.n, params, count=req.count,
                                         rng=cs.RngState(req.rng_seed),
                                         streams=req.streams)
        except Exception as exc:
            status = type(exc).__name__
        t1 = time.perf_counter()
    return t1 - t0, status, caught, batch


def run_requests(reqs, warm, tracer):
    """(records, reference-loop times): the loop runs before every request
    and after the last, so the times sample the host's speed all through
    the run (see calibrate.py).

    The objects made in set-up are moved out of the collector's reach and
    a collection runs before every request, so each request starts with
    the same collector state whatever ran before it.
    """
    import checks
    records, ref = [], []
    gc.freeze()
    for pass_reqs in reqs:
        for req in pass_reqs:
            gc.collect()
            ref.append(calibrate.reference_time())
            if tracer is not None:
                tracer.request = len(records)
            rec = {"rid": req.rid, "family": req.family}
            if isinstance(req, wl.SampleRequest):
                lat, status, caught, batch = _run_sample(req, warm)
                rec.update(n=req.n, count=req.count)
                if batch is not None:
                    rec.update(accepted=batch.accepted, trials=batch.trials,
                               K=[sum(v.a) for v in batch.samples],
                               check=checks.check_samples(batch, req.n))
            else:
                lat, status, caught, out, err = _run_cli(req)
                if status == 0:
                    try:
                        rec["check"] = checks.check_cli(req, out)
                    except (ValueError, IndexError, TypeError) as exc:
                        rec["check"] = f"unparseable output: {exc!r}"
                else:
                    rec["stderr"] = err.strip()[-200:]
            rec.update(latency=lat, status=status, warnings=len(caught),
                       warning_texts=sorted({str(w.message) for w in caught}))
            records.append(rec)
    ref.append(calibrate.reference_time())
    return records, ref


def _expected_K(spec, n, params) -> float:
    """E K = sum_j E C_j(n) from moments.factorial_moment_single.

    Above the exact cutoff every call rebuilds the same float p_theta
    table, so the table is memoized for the length of this computation.
    """
    from combstruct import moments as mom
    orig = mom.log_ptheta_table
    memo = {}

    def cached(spec_, n_, theta, x=None):
        key = (n_, theta, x)
        if key not in memo:
            memo[key] = orig(spec_, n_, theta, x=x)
        return memo[key]

    mom.log_ptheta_table = cached
    try:
        return math.fsum(mom.factorial_moment_single(spec, n, j, 1, params)
                         for j in range(1, n + 1))
    finally:
        mom.log_ptheta_table = orig


def check_k_means(records, warm):
    """Mean K within 5 standard errors of E K, per batch and per class.

    The standard error uses the standard deviation of K pooled over every
    batch of the same (family, n) in this run, so that small batches do not
    lean on their own noisy spread.  Small batches alone cannot see a shift
    of a fraction of a component, so the pooled mean of each (family, n) is
    checked too; when it fails, every batch of that class fails.
    """
    import checks
    pooled = {}
    for rec in records:
        if "K" in rec:
            pooled.setdefault((rec["family"], rec["n"]), []).extend(rec["K"])
    for key, ks in pooled.items():
        fam, n = key
        expected = _expected_K(warm[key][0], n, warm[key][1])
        sd = statistics.pstdev(ks) if len(ks) > 1 else 0.0
        class_gap = checks.k_gap(ks, expected, sd)
        for rec in records:
            if rec.get("K") and not rec.get("check") and \
                    (rec["family"], rec["n"]) == key:
                rec["check"] = (checks.k_gap(rec["K"], expected, sd)
                                or (class_gap and f"class {class_gap}"))
    for rec in records:
        rec.pop("K", None)


def _by_family(spans, records) -> dict:
    """family -> layer -> self seconds, from the traced spans."""
    from tracing import self_times
    out = {}
    for span, own in zip(spans, self_times(spans)):
        fam = out.setdefault(records[span[4]]["family"], {})
        fam[span[0]] = fam.get(span[0], 0.0) + own
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    try:
        reqs, warm = setup(args.workload, args.seed, args.passes, args.workdir)
        print("ready", flush=True)
        # The host's speed just after set-up; run.py also times the loop
        # just before it, and corrects the set-up time by both.
        print(json.dumps(calibrate.reference_times(calibrate.SETUP_LOOPS)),
              flush=True)
        if args.probe:
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        records, ref = run_requests(reqs, warm, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        if warm:
            check_k_means(records, warm)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    import numpy
    import scipy
    result = {
        "records": records, "peak_rss_mb": peak_rss_mb, "ref_s": ref,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        from tracing import span_table
        result["spans"] = span_table(tracer.spans)
        result["span_count"] = len(tracer.spans)
        result["root_s"] = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
        result["counts"] = dict(tracer.counts)
        result["by_family"] = _by_family(tracer.spans, records)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
