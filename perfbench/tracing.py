"""Spans and counters recorded around calls into nodalrec's public functions.

Nothing inside the program is edited: ``Tracer.install`` replaces each
listed function with a recording wrapper in every nodalrec module that holds
it, so the wrapper runs wherever a caller looks the name up (for example
``nodalrec.spectrum.char_fn_normalized``).  ``uninstall`` puts the
originals back.

A span has a name, a layer, start and end times and its parent span.  A
layer's self time is the duration of its spans minus the part their child
spans cover.  Calls made far too often for a span each (compiled
expressions, ``node_asym``) feed counters instead, and their time stays in
the self time of the span around them.

Durations leave out the time the pass clock's calibration kernel ran inside
them (``excluded`` reports that total as it grows) and are multiplied by the
pass's scale, so layer times are in the same reference seconds as solve_s.
"""

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) -> layer.  A call nested in a span of its own layer
# (char_fn_normalized -> char_fn -> endpoint_states) is recorded but not
# counted again in the layer's calls and time.
SPAN_TARGETS = {
    ("nodalrec.forward", "char_fn_normalized"): "forward.char_fn",
    ("nodalrec.forward", "char_fn"): "forward.char_fn",
    ("nodalrec.forward", "endpoint_states"): "forward.char_fn",
    ("nodalrec.forward", "solve_batch"): "forward.solve_batch",
    ("nodalrec.spectrum", "compute_spectrum"): "spectrum",
    ("nodalrec.spectrum", "nodal_data"): "spectrum",
    ("nodalrec.spectrum", "find_eigenvalue"): "spectrum",
    ("nodalrec.spectrum", "find_nodes"): "spectrum",
    ("nodalrec.problem", "load_problem"): "problem.load",
    ("nodalrec.problem", "problem_from_mapping"): "problem.load",
    ("nodalrec.problem", "ensure_valid"): "problem.validate",
    ("nodalrec.problem", "derived_integrals"): "problem.derived_integrals",
    ("nodalrec.asymptotics", "synthesize_nodal_data"): "asymptotics.synth",
    ("nodalrec.io", "write_nodal_csv"): "io.write",
    ("nodalrec.io", "read_nodal_csv"): "io.read",
    ("nodalrec.inverse", "reconstruct"): "inverse.reconstruct",
    ("nodalrec.inverse", "calibrate_offset"): "inverse.calibrate",
    ("nodalrec.inverse", "f_estimate"): "inverse.f_stage",
    ("nodalrec.inverse", "g_estimate"): "inverse.g_stage",
    ("nodalrec.inverse", "differentiate"): "inverse.differentiate",
}

_FORWARD_LAYERS = ("forward.char_fn", "forward.solve_batch")


def _is_nodalrec(name):
    return name == "nodalrec" or name.startswith("nodalrec.")


class Tracer:
    def __init__(self, excluded=lambda: 0.0):
        self.excluded = excluded
        self.spans = []
        self.counters = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.missing_targets = []
        self._stack = []
        self._depth = Counter()
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer, name, fn, describe=None):
        sig = inspect.signature(fn)
        clock, excluded = time.perf_counter, self.excluded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "name": name,
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "top": self._depth[layer] == 0,
            }
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self._depth[layer] += 1
            x0 = excluded()
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                rec["own"] = rec["end"] - rec["start"] - (excluded() - x0)
                self._stack.pop()
                self._depth[layer] -= 1
            if describe is not None:
                rec.update(describe(sig.bind(*args, **kwargs).arguments))
            return result

        return wrapper

    def _counted(self, key, fn, timed=True):
        counter = self.counters[key]
        clock, excluded = time.perf_counter, self.excluded

        if not timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counter[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            x0 = excluded()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += clock() - t0 - (excluded() - x0)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, original, replacement):
        """Bind replacement wherever a nodalrec module holds original."""
        for mod_name, mod in list(sys.modules.items()):
            if not _is_nodalrec(mod_name):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self):
        forward = sys.modules["nodalrec.forward"]
        resolution_points = forward.resolution_points

        def describe_forward(arguments):
            lam = arguments.get("lam", ())
            points = arguments.get("points")
            if points is None:
                guard = arguments.get("guard", forward.DEFAULT_GUARD)
                points = resolution_points(lam, guard=guard)
            return {"lambdas": int(np.size(lam)), "steps": int(points)}

        def describe_write(arguments):
            return {"bytes": os.path.getsize(arguments["path"])}

        describers = {
            "forward.char_fn": describe_forward,
            "forward.solve_batch": describe_forward,
            "io.write": describe_write,
        }
        for (mod_name, fn_name), layer in SPAN_TARGETS.items():
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                self.missing_targets.append(f"{mod_name}.{fn_name}")
                continue
            self._replace(original, self._span(layer, fn_name, original, describers.get(layer)))

        asym = sys.modules["nodalrec.asymptotics"]
        self._replace(asym.node_asym, self._counted("node_asym", asym.node_asym, timed=False))

        # Compiled V / chi callables are created at load time, so the
        # compiler is wrapped to hand out counting callables; a problem
        # must be loaded after install for its expressions to be counted.
        compile_expression = sys.modules["nodalrec.expressions"].compile_expression

        @functools.wraps(compile_expression)
        def compile_counted(*args, **kwargs):
            return self._counted("expressions", compile_expression(*args, **kwargs))

        self._replace(compile_expression, compile_counted)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                covered[rec["parent"]] += rec["own"]
        return [rec["own"] - c for rec, c in zip(self.spans, covered)]

    def layer(self, name):
        """(calls, seconds, summed extras) over the layer's outermost spans."""
        calls, seconds, extras = 0, 0.0, Counter()
        for rec in self.spans:
            if rec["layer"] == name and rec["top"]:
                calls += 1
                seconds += rec["own"]
                for key in ("lambdas", "bytes"):
                    extras[key] += rec.get(key, 0)
                extras["lambda_steps"] += rec.get("lambdas", 0) * rec.get("steps", 0)
        return calls, seconds, extras

    def calls(self, layer):
        if layer == "expressions":
            return self.counters["expressions"][0]
        if layer == "asymptotics.node_asym":
            return self.counters["node_asym"][0]
        return self.layer(layer)[0]

    def metrics(self, scale=1.0):
        """Per-layer metric values by name, times multiplied by scale (units
        are in BENCHMARK.json)."""
        out = {}
        fwd_s, fwd_steps = 0.0, 0
        for layer in _FORWARD_LAYERS:
            calls, seconds, extras = self.layer(layer)
            out[f"{layer}_calls"] = calls
            out[f"{layer}_lambda_steps"] = extras["lambda_steps"]
            out[f"{layer}_s"] = seconds * scale
            fwd_s += seconds * scale
            fwd_steps += extras["lambda_steps"]
        out["forward.char_fn_lambdas"] = self.layer("forward.char_fn")[2]["lambdas"]
        out["forward.ns_per_lambda_step"] = 1e9 * fwd_s / fwd_steps if fwd_steps else 0.0

        out["spectrum.self_s"] = scale * sum(
            s for rec, s in zip(self.spans, self.self_times()) if rec["layer"] == "spectrum"
        )
        calls, seconds = self.counters["expressions"]
        out["expressions.calls"], out["expressions.s"] = calls, seconds * scale

        out["problem.load_s"] = self.layer("problem.load")[1] * scale
        out["problem.validate_s"] = self.layer("problem.validate")[1] * scale
        calls, seconds, _ = self.layer("problem.derived_integrals")
        out["problem.derived_integrals_calls"] = calls
        out["problem.derived_integrals_s"] = seconds * scale

        synth_s = self.layer("asymptotics.synth")[1] * scale
        node_calls = self.counters["node_asym"][0]
        out["asymptotics.synth_s"] = synth_s
        out["asymptotics.node_asym_calls"] = node_calls
        out["asymptotics.us_per_node"] = 1e6 * synth_s / node_calls if node_calls else 0.0

        _, seconds, extras = self.layer("io.write")
        out["io.write_s"], out["io.bytes"] = seconds * scale, extras["bytes"]
        out["io.read_s"] = self.layer("io.read")[1] * scale

        for stage in ("reconstruct", "calibrate", "f_stage", "g_stage", "differentiate"):
            out[f"inverse.{stage}_s"] = self.layer(f"inverse.{stage}")[1] * scale
        out["inverse.fit_calls"] = self.layer("inverse.f_stage")[0] + self.layer("inverse.g_stage")[0]
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, scale=1.0):
        """Spans (raw start/end, scaled own and self time) and counters as
        plain JSON-ready data."""
        return {
            "scale": scale,
            "spans": [dict(rec, own=rec["own"] * scale, self=s * scale)
                      for rec, s in zip(self.spans, self.self_times())],
            "counters": {k: {"calls": v[0], "s": v[1] * scale} for k, v in self.counters.items()},
            "missing_targets": self.missing_targets,
        }
