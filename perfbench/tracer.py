"""Per-layer tracing of the crsadder package from outside its source.

The tracer rebinds public functions of the package's modules to timing
wrappers inside the benchmark process.  Modules that import a function
by name (``crs`` and ``executor`` import ``solve_cell_dc`` and
``crs_pulse`` this way) hold their own reference, so every module of the
package that refers to the original function is rebound.

A device run makes about a million DC solves, so leaf calls are not kept
as spans: calls, self time and errors are aggregated per (function,
parent) pair, where the parent is the innermost traced caller.  Only the
coarse calls (one adder run, calibration or sweep) are kept as spans, in
memory, and written out when the benchmark ends.  Each coarse span
carries the benchmark operation it belongs to and the DC solves and
divider calls made inside it.
"""

from __future__ import annotations

import collections
import contextlib
import sys
import time

PACKAGE = "crsadder"

# (layer name, defining module, function).  Both adder generators count
# as one layer, ``microcode.gen_adder``.
TARGETS = (
    ("ecm.solve_cell_dc", "ecm", "solve_cell_dc"),
    ("ecm._implicit_substep", "ecm", "_implicit_substep"),
    ("ecm.step_transient", "ecm", "step_transient"),
    ("ecm.sweep_iv_unit", "ecm", "sweep_iv_unit"),
    ("crs.solve_crs_divider", "crs", "solve_crs_divider"),
    ("crs.crs_pulse", "crs", "crs_pulse"),
    ("crs.step_crs_transient", "crs", "step_crs_transient"),
    ("crs.sweep_iv_crs", "crs", "sweep_iv_crs"),
    ("crs.fsm_next", "crs", "fsm_next"),
    ("executor.run_device", "executor", "run_device"),
    ("executor.run_behavioral", "executor", "run_behavioral"),
    ("executor.time_to_flip", "executor", "time_to_flip"),
    ("executor.calibrate_pulse", "executor", "calibrate_pulse"),
    ("microcode.validate_program", "microcode", "validate_program"),
    ("microcode.gen_adder", "microcode", "gen_pc_adder"),
    ("microcode.gen_adder", "microcode", "gen_tc_adder"),
)

COARSE = frozenset({"executor.run_device", "executor.run_behavioral",
                    "executor.calibrate_pulse", "crs.sweep_iv_crs",
                    "ecm.sweep_iv_unit"})
SPAN_COUNTED = ("ecm.solve_cell_dc", "crs.solve_crs_divider")

DIVIDER_KCL_TOL = 1e-12   # relative node tolerance stated by the divider


class Tracer:
    """Aggregated per-layer counters for one traced run.

    ``calls`` and ``self_s`` are keyed by (layer, parent layer or None);
    ``errors`` by layer; ``flags`` counts the tolerance misses and
    near-rail divider results seen in returned values.
    """

    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.errors = collections.Counter()
        self.flags = collections.Counter()
        self.spans = []
        self.op = None          # label of the operation now running
        self.missing = []
        self._stack = []
        self._open_spans = []
        self._patches = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self):
        """Rebind every traced function in every module of the package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        hooks = self._result_hooks()
        for layer, mod_name, fn_name in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(layer, original, hooks.get(layer))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original, wrapper))

    def uninstall(self):
        for m, attr, original, _ in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run a block with the original functions bound."""
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)
        try:
            yield
        finally:
            for m, attr, _, wrapper in self._patches:
                setattr(m, attr, wrapper)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, layer, fn, on_result):
        stack, open_spans = self._stack, self._open_spans
        calls, self_s, errors = self.calls, self.self_s, self.errors
        clock = time.perf_counter
        coarse = layer in COARSE
        counted = layer in SPAN_COUNTED
        origin = self._origin
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            if counted and open_spans:
                open_spans[-1][layer] += 1
            if coarse:
                open_spans.append(collections.Counter())
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            except Exception:
                errors[layer] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[(layer, parent)] += 1
                self_s[(layer, parent)] += dt - frame[1]
                if coarse:
                    inner = open_spans.pop()
                    if open_spans:
                        open_spans[-1].update(inner)
                    tracer.spans.append({
                        "name": layer, "parent": parent, "op": tracer.op,
                        "start_s": t0 - origin, "end_s": t0 - origin + dt,
                        "self_s": dt - frame[1],
                        **{f"{k}.calls": inner[k] for k in SPAN_COUNTED}})

        return traced

    def _result_hooks(self):
        flags = self.flags
        kvl_tol = getattr(sys.modules.get(f"{PACKAGE}.ecm"), "KVL_TOL", 1e-12)

        def on_cell(args, sol):
            if abs(sol.kvl_residual) > kvl_tol * abs(sol.v_cell):
                flags["ecm.solve_cell_dc.kvl"] += 1

        def on_divider(args, result):
            v_w, v_b = args[0], args[1]
            v_m, _, st, sb = result
            if divider_tol_miss(st, sb):
                flags["crs.solve_crs_divider.tol"] += 1
            if near_rail(v_m, v_w, v_b):
                flags["crs.solve_crs_divider.near_rail"] += 1

        return {"ecm.solve_cell_dc": on_cell,
                "crs.solve_crs_divider": on_divider}

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------

    def total_calls(self, layer, parent=None):
        if parent is not None:
            return self.calls[(layer, parent)]
        return sum(n for (name, _), n in self.calls.items() if name == layer)

    def total_self_s(self, layer):
        return sum(s for (name, _), s in self.self_s.items() if name == layer)

    def by_parent(self):
        """JSON-ready list of the per-(layer, parent) aggregates."""
        return [{"layer": layer, "parent": parent, "calls": n,
                 "self_s": self.self_s[(layer, parent)]}
                for (layer, parent), n in sorted(
                    self.calls.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]


def divider_tol_miss(sol_top, sol_bot):
    """True when the returned branch currents miss the divider's KCL tolerance."""
    i_t, i_b = sol_top.i_total, sol_bot.i_total
    return abs(i_t + i_b) > DIVIDER_KCL_TOL * max(abs(i_t), abs(i_b))


# A middle node closer to a line than this share of the line difference
# puts the low-ohmic cell's drop below 1e-4 of the applied voltage, so
# forming v_m - v_line cancels at least four of the sixteen digits.
NEAR_RAIL_SHARE = 1e-4


def near_rail(v_m, v_w, v_b):
    span = abs(v_w - v_b)
    return span > 0.0 and min(abs(v_m - v_w), abs(v_m - v_b)) <= NEAR_RAIL_SHARE * span
