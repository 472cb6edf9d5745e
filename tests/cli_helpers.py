"""Helpers shared by the tests that drive the CLI: the spec documents they
write to files, and a runner for a script in a fresh interpreter, whose
modules, threads and peak RSS are its own and not the test runner's."""

import json
import os
import subprocess
import sys

SPEC_DOCS = {
    "permutations": {"kind": "assembly", "builtin": "permutations"},
    "setpartitions": {"kind": "assembly", "builtin": "set_partitions"},
    "intpart": {"kind": "multiset", "builtin": "integer_partitions"},
    "esf2": {"kind": "assembly", "builtin": "esf", "params": {"kappa": 2}},
    "esf_float": {"kind": "assembly", "builtin": "esf",
                  "params": {"kappa": 0.3}},
    "squarefree2": {"kind": "selection", "builtin": "squarefree_polynomials",
                    "params": {"q": 2}},
    "bad_kind": {"kind": "assembli", "m": [1, 2]},
    "distinct": {"kind": "selection", "builtin": "distinct_partitions"},
    "distinct_odd": {"kind": "selection",
                     "builtin": "distinct_odd_partitions"},
    # P(T_25 = 25) = 2.1e-315 at x = 3: the whole pmf of T_25 is below
    # the smallest normal double
    "subnormal_sel": {"kind": "selection",
                      "m": [0] * 12 + [1] * 8 + [4] + [5] * 4},
    "even_only": {"kind": "multiset", "m": [0, 1]},
    "poly2": {"kind": "multiset", "builtin": "polynomials",
              "params": {"q": 2}},
    "mappings": {"kind": "assembly", "builtin": "mappings"},
    # 70 entries from 0..3, as the benchmark's custom selections
    "custom_sel": {"kind": "selection",
                   "m": [3, 3, 3, 1, 1, 3, 1, 0, 3, 2, 1, 0, 0, 3, 3, 1,
                         0, 0, 0, 0, 1, 1, 0, 3, 2, 3, 1, 1, 2, 3, 0, 0,
                         3, 2, 3, 0, 2, 2, 1, 2, 0, 0, 0, 3, 0, 2, 3, 0,
                         0, 0, 1, 1, 0, 3, 3, 3, 3, 0, 1, 2, 2, 0, 2, 2,
                         0, 3, 0, 1, 1, 0]},
    "esf_half": {"kind": "assembly", "builtin": "esf",
                 "params": {"kappa": "1/2"}},
}


def write_specs(directory):
    """SPEC_DOCS as JSON files in directory: {name: path}."""
    paths = {}
    for name, doc in SPEC_DOCS.items():
        p = directory / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run_script(script, *args, env=None, timeout=300):
    """Runs script with args in a fresh interpreter under
    -W error::RuntimeWarning, on this process's sys.path and with env added
    to its environment; asserts exit 0 and returns its stdout."""
    full_env = dict(os.environ, **(env or {}),
                    PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script, *args],
        capture_output=True, text=True, env=full_env, timeout=timeout)
    assert res.returncode == 0, res.stderr
    return res.stdout


# VmHWM is the interpreter's own peak RSS in kB; ru_maxrss would also keep
# the peak of the test runner that started it
_PEAK_RSS = """
import json as _json
try:
    with open("/proc/self/status") as _f:
        _peak_kb = next(int(line.split()[1]) for line in _f
                        if line.startswith("VmHWM:"))
except OSError:
    _peak_kb = None
print(_json.dumps([result, _peak_kb]))
"""


def run_for_peak_rss(script, *args, env=None):
    """Runs script as run_script does; script leaves a JSON value in
    `result`.  Returns (result, peak RSS in kB, or None where the platform
    has no /proc/self/status)."""
    return json.loads(run_script(script + _PEAK_RSS, *args, env=env))
