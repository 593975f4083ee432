"""Spans around calls into the package's public functions, and the per-layer
metrics derived from them.

A traced run replaces, in memory and for the benchmark process only, every
module-level binding of the functions in LAYER_FUNCTIONS with a wrapper that
records a span: name, start, end, parent span, state id and a tag taken from
the result (or the exception type).  Calls between modules go through those
bindings, so the spans nest as the program calls itself.  Spans stay in memory
and are written out once the run ends.
"""

import contextlib
import json
import sys
import time

import numpy as np

# module -> public functions wrapped in a traced run
LAYER_FUNCTIONS = {
    "symplectic_core": ("validate_cm", "reduce_to_standard_params"),
    "standard_form_solver": ("solve_squeezings", "critical_params"),
    "epr_uncertainty": ("delta0",),
    "eof_core": ("f_aux", "eof", "eof_from_cm"),
    "bounds": ("minimize_reduced_determinant", "gaussian_eof",
               "bounds_report", "rigolin_lower", "oliveira_upper"),
    "decomposition": ("decomposition_spec", "sample_displacements",
                      "reconstruct_cm", "verify_reconstruction"),
}

# the stages eof() is composed of, in pipeline order
EOF_STAGES = ("symplectic_core.validate_cm",
              "standard_form_solver.solve_squeezings",
              "standard_form_solver.critical_params",
              "epr_uncertainty.delta0", "eof_core.f_aux")

_TAGGERS = {
    "standard_form_solver.solve_squeezings":
        lambda sol: (sol.branch, sol.multiple_brackets, sol.max_residual),
    "eof_core.eof": lambda report: report.epr.separable,
}

_NAME, _START, _END, _PARENT, _STATE, _TAG = range(6)


class Tracer:
    """Span recorder; install() wraps the package functions while active."""

    def __init__(self):
        self.spans = []
        self.state = None
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tagger = _TAGGERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx] = (name, start, clock(), parent, self.state,
                              type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, start, clock(), parent, self.state,
                          tagger(result) if tagger else None)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def install(self):
        """Wrap every binding of the LAYER_FUNCTIONS in the loaded package."""
        pkg = sys.modules["gaussian_eof"]
        wrappers = {}
        for module, names in LAYER_FUNCTIONS.items():
            mod = getattr(pkg, module)
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = self._wrap(f"{module}.{fname}", fn)
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "gaussian_eof" and not modname.startswith("gaussian_eof."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def write(self, path):
        """Write the spans as JSON lines, one per span, times in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[_NAME], "start_ns": s[_START],
                                     "end_ns": s[_END], "parent": s[_PARENT],
                                     "state": s[_STATE], "tag": s[_TAG]}))
                fh.write("\n")


def layer_metrics(spans):
    """Per-layer metrics of the LAYER_FUNCTIONS spans (values, no units)."""
    durations = {}
    tags = {}
    child_ns = {}       # parent name -> time covered by its child spans
    child_ns_by = {}    # (parent name, child name) -> same, per child name
    for s in spans:
        name, dur = s[_NAME], s[_END] - s[_START]
        durations.setdefault(name, []).append(dur)
        tags.setdefault(name, []).append(s[_TAG])
        if s[_PARENT] >= 0:
            pname = spans[s[_PARENT]][_NAME]
            child_ns[pname] = child_ns.get(pname, 0) + dur
            key = (pname, name)
            child_ns_by[key] = child_ns_by.get(key, 0) + dur

    def busy(name):
        return sum(durations.get(name, ())) / 1e9

    def pct_us(name, q):
        d = durations.get(name)
        return float(np.percentile(d, q)) / 1e3 if d else 0.0

    out = {}
    for name in ("symplectic_core.reduce_to_standard_params",
                 "symplectic_core.validate_cm"):
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.p50_us"] = pct_us(name, 50)

    solve = "standard_form_solver.solve_squeezings"
    out[f"{solve}.busy_s"] = busy(solve)
    out[f"{solve}.p50_us"] = pct_us(solve, 50)
    out[f"{solve}.p99_us"] = pct_us(solve, 99)
    solved = [t for t in tags.get(solve, ()) if isinstance(t, tuple)]
    for branch in ("general", "symmetric", "squeezed_thermal"):
        out[f"{solve}.branch_{branch}"] = sum(t[0] == branch for t in solved)
    out[f"{solve}.multiple_brackets"] = sum(bool(t[1]) for t in solved)
    out[f"{solve}.max_residual"] = max((t[2] for t in solved), default=0.0)

    for name in ("standard_form_solver.critical_params",
                 "epr_uncertainty.delta0", "eof_core.f_aux"):
        out[f"{name}.busy_s"] = busy(name)

    # self time: eof() minus its stage calls, i.e. dispatch, validation
    # and report building
    eof = "eof_core.eof"
    out[f"{eof}.busy_s"] = busy(eof)
    out[f"{eof}.self_s"] = busy(eof) - child_ns.get(eof, 0) / 1e9
    out[f"{eof}.separable"] = sum(t is True for t in tags.get(eof, ()))

    mini = "bounds.minimize_reduced_determinant"
    out[f"{mini}.busy_s"] = busy(mini)
    out[f"{mini}.p50_us"] = pct_us(mini, 50)
    # gaussian_eof minus the minimiser only: what is left is mostly its
    # internal eof() re-run
    geof = "bounds.gaussian_eof"
    out[f"{geof}.self_s"] = busy(geof) - child_ns_by.get((geof, mini), 0) / 1e9
    report = "bounds.bounds_report"
    out[f"{report}.busy_s"] = busy(report)
    out[f"{report}.self_s"] = busy(report) - child_ns.get(report, 0) / 1e9
    for name in ("bounds.rigolin_lower", "bounds.oliveira_upper"):
        out[f"{name}.busy_s"] = busy(name)

    spec = "decomposition.decomposition_spec"
    spec_tags = tags.get(spec, [])
    out[f"{spec}.busy_s"] = busy(spec)
    out[f"{spec}.attempts"] = len(spec_tags)
    out[f"{spec}.not_psd"] = sum(t == "NotPsd" for t in spec_tags)
    out[f"{spec}.certified_ratio"] = (
        sum(t is None for t in spec_tags) / len(spec_tags) if spec_tags else 0.0)
    out["decomposition.reconstruct_cm.busy_s"] = busy(
        "decomposition.reconstruct_cm")
    return out
