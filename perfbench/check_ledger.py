"""Self-test of the benchmark: two runs fail on exactly the same requests.

    python3 perfbench/check_ledger.py [--workload analytic-cold] [--seeds 1,2]

Runs the workload once per seed (different seeds, so the seeded inputs
differ) and checks that every run fails on the same set of requests, that
this set is the ledger in known_failures.json, and that every run is
correct.  Exit code 0 when all of that holds, 1 otherwise.  With
--workload all it checks every workload (about 3 minutes on 2 cores).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="analytic-cold",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seeds", default="1,2")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    ledger = set(run.load_ledger())
    ok = True
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        sets = []
        for seed in seeds:
            m = run.measure(w, seed, run.NOMINAL_PASS_S, 0,
                            time.monotonic() + run.DEADLINE_S)
            failed = set(m["ledger"]["failed"])
            rids = {r["rid"] for r in m["res"]["records"]}
            print(f"{w} seed={seed}: {len(failed)} failing of "
                  f"{m['attempted']}, correct={m['correct']}")
            ok &= m["correct"] and failed == (ledger & rids)
            sets.append(failed)
        same = all(s == sets[0] for s in sets)
        print(f"{w}: runs fail on the same requests: {same}")
        ok &= same
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
