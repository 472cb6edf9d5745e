"""Span tracing of combstruct's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
combstruct module that binds it (callers import several of them by name,
e.g. `sumdist.log_m_array` or `cli.choose_x`), and on the classes for
methods.  A wrapper records a span (name, start, end, parent span, request
id) and, at the same boundary, the counts below.  The hottest inner calls
(`StructureSpec.m`, `z_law`, `_recursion_coeffs`) are counted, not spanned.
Spans stay in memory until `span_table` aggregates them.

Counts marked "computed" are derived from the call's arguments by a formula
stated beside it, not measured; they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute, span name); attribute "Class.method" patches a method.
SPANS = (
    ("cli", "run", "cli.run"),
    ("cli", "Output.render", "cli.render"),
    ("structures", "load_spec", "structures.load_spec"),
    ("structures", "ptheta_table", "structures.ptheta_table"),
    ("structures", "log_ptheta_table", "structures.log_ptheta_table"),
    ("indep_process", "log_m_array", "indep_process.log_m_array"),
    ("indep_process", "choose_x", "indep_process.choose_x"),
    ("indep_process", "sum_moments", "indep_process.sum_moments"),
    ("indep_process", "DiscreteLaw.pmf_array", "indep_process.pmf_array"),
    ("sumdist", "weighted_sum_pmf", "sumdist.weighted_sum_pmf"),
    ("sumdist", "_pmf_by_recursion", "sumdist.weighted_sum_pmf.recursion"),
    ("sumdist", "_pmf_by_convolution", "sumdist.weighted_sum_pmf.convolution"),
    ("sumdist", "prob_T_eq_n", "sumdist.prob_T_eq_n"),
    ("tv_engine", "tv_CB_ZB", "tv_engine.tv_CB_ZB"),
    ("tv_engine", "tv_heuristic", "tv_engine.tv_heuristic"),
    ("moments", "factorial_moment_single", "moments.factorial_moment_single"),
    ("moments", "esf_moment", "moments.esf_moment"),
    ("limits", "limit_law_check", "limits.limit_law_check"),
    ("limits", "limit_density", "limits.limit_density"),
    ("sampler", "sample_components", "sampler.sample_components"),
    ("verify", "run_all", "verify.run_all"),
    ("oracle", "exact_joint_law", "oracle.exact_joint_law"),
)
COUNTED = (
    ("structures", "StructureSpec.m", "structures.StructureSpec.m.calls"),
    ("indep_process", "z_law", "indep_process.z_law.calls"),
    ("sumdist", "_recursion_coeffs", None),
)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "combstruct"
                                  or name.startswith("combstruct."))]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.counts = defaultdict(float)
        self.request = None
        self._stack = []
        self._main = threading.get_ident()
        self._undo = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name):
        if threading.get_ident() != self._main:
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        if idx is not None:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- installing wrappers ------------------------------------------------

    def install(self):
        import combstruct.cli  # noqa: F401  (load every traced module)
        import combstruct.verify  # noqa: F401
        hooks = _hooks(self)
        for mod, attr, name in SPANS:
            self._patch(mod, attr, lambda fn, name=name: self._spanned(
                fn, name, *hooks.get(name, (None, None))))
        for mod, attr, name in COUNTED:
            self._patch(mod, attr, lambda fn, name=name, attr=attr:
                        self._counted(fn, name, hooks.get(attr)))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _patch(self, mod, attr, make):
        module = sys.modules[f"combstruct.{mod}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(module, attr)
        new = make(orig)
        for m in _modules():
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._undo.append((m, key, orig))
                    setattr(m, key, new)

    def _spanned(self, fn, name, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(*args, **kwargs) if before else None
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after:
                after(ctx, out, *args, **kwargs)
            return out
        return wrapper

    def _counted(self, fn, name, hook):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name:
                counts[name] += 1
            if hook:
                hook(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper


def _hooks(tr: Tracer) -> dict:
    """Span name -> (before, after); counted attribute -> hook."""
    c = tr.counts

    def log_m_before(spec, n):
        arr = spec._table_cache.get("log_m")
        if arr is None or len(arr) <= n:
            c["indep_process.log_m_array.cold_calls"] += 1

    def ptheta_before(spec, n, theta=1):
        t = Fraction(theta)
        cached = spec._table_cache.get(
            ("ptheta", t.numerator if t.denominator == 1 else t))
        return cached is None or len(cached) <= n

    def ptheta_after(cold, out, spec, n, theta=1):
        if not cold:
            return
        c["structures.ptheta_table.cold_calls"] += 1
        # computed: products in the O(n^2) coefficient sum, one per
        # (k, i) with i <= k <= n and a nonzero coefficient at i (m_i for
        # assemblies, the divisor sum g_i for multisets and selections).
        nz = {i for i in range(1, n + 1) if spec._m_cache.get(i, 0)}
        if spec.kind.value != "assembly":
            nz = {i for k in nz for i in range(k, n + 1, k)}
        c["structures.ptheta_table.terms"] += sum(n - i + 1 for i in nz)

    def sum_moments_before(*_a, **_k):
        if tr.inside("indep_process.choose_x"):
            c["indep_process.choose_x.mean_evals"] += 1

    def pmf_array_after(_ctx, _out, law, k_max):
        c["indep_process.pmf_array.terms"] += k_max + 1

    def recursion_hook(g, n_max):
        # computed: sum over k = 1..n_max of the dot length k
        c["sumdist.recursion.madds"] += n_max * (n_max + 1) // 2

    def convolution_after(_ctx, _out, spec, B, n_max, params):
        # computed: sum of len(r) * len(v) over the np.convolve calls
        r_len, madds = 1, 0
        for i in B:
            if not spec._m_cache.get(i, 0):
                continue
            v_len = min((n_max // i) * i, n_max) + 1
            madds += r_len * v_len
            r_len = min(r_len + v_len - 1, n_max + 1)
        c["sumdist.convolution.madds"] += madds

    def sample_before(*_a, **_k):
        return time.process_time()

    def sample_after(cpu0, batch, spec, n, *_a, **_k):
        c["sampler.cpu_s"] += time.process_time() - cpu0
        c["sampler.trials"] += batch.trials
        c["sampler.accepted"] += batch.accepted
        c["sampler.expected_accepted"] += batch.trials * batch.acceptance_exact
        c["sampler.uniforms"] += batch.trials * n  # computed: trials x n

    def render_after(_ctx, text, _self):
        c["cli.render.bytes"] += len(text.encode())

    return {
        "indep_process.log_m_array": (log_m_before, None),
        "structures.ptheta_table": (ptheta_before, ptheta_after),
        "indep_process.sum_moments": (sum_moments_before, None),
        "indep_process.pmf_array": (None, pmf_array_after),
        "sumdist.weighted_sum_pmf.convolution": (None, convolution_after),
        "sampler.sample_components": (sample_before, sample_after),
        "cli.render": (None, render_after),
        "_recursion_coeffs": recursion_hook,
    }


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _n, start, end, _p, _r in spans]
    for _n, start, end, parent, _r in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def span_table(spans) -> dict:
    """name -> {"calls", "s" (inclusive), "self_s"}.

    Inclusive time skips spans nested inside a span of the same name.
    """
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, parent, _r), own in zip(spans, self_times(spans)):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += own
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["s"] += end - start
    return dict(out)
