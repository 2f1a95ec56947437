"""Outside-in tracer for the glsnum benchmark.

The tracer wraps public functions of the `glsnum` modules from outside the
package: each wrapped name is replaced in its defining module, in every
`glsnum` module that imported it under that name, and in the `glsnum`
namespace, so calls between modules are seen too.  Three methods are wrapped
on their classes (`PsiFunction.__call__`, `YoungFunction.__call__`,
`DiscreteMeasureSpace.function`), and the callbacks handed to
`grid_refine_max` and `min_feasible` are wrapped per call so that their
evaluations are counted.

Every wrapped call records a span (id, parent id, query id, name, start,
end) and feeds three aggregates per name: `calls`, `busy_s` (inclusive time)
and `self_s` (busy time minus the time of child spans).  Search callbacks are
per-point hooks and record counts only; the spans of the per-evaluation
methods in `UNKEPT` are aggregated but not kept.  While `enabled` is false a
wrapper forwards straight to the original function; `uninstall` restores
every original binding.
"""
from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import numpy as np

#: spans kept in memory; aggregates keep counting past this
SPAN_LIMIT = 200_000
#: per-evaluation names: timed and counted, but their spans are not kept
#: (a kept span's parent is its nearest kept ancestor)
UNKEPT = frozenset({"psi.eval", "orlicz.young_eval", "measure.lp_norm"})

ORACLE = "duality.associate_norm_oracle"

# (module, attribute, span name) for plain functions
FUNCTIONS = [
    ("measure", "lp_norms", "measure.lp_norms"),
    ("measure", "lp_norm", "measure.lp_norm"),
    ("search", "grid_refine_max", "search.grid_refine_max"),
    ("search", "min_feasible", "search.min_feasible"),
    ("glnorm", "gls_norm", "glnorm.gls_norm"),
    ("glnorm", "family_unit_norm_check", "glnorm.family_unit_norm_check"),
    ("convex", "h_of", "convex.h_of"),
    ("convex", "young_fenchel_table", "convex.young_fenchel_table"),
    ("convex", "young_fenchel_point", "convex.young_fenchel_point"),
    ("convex", "young_fenchel", "convex.young_fenchel"),
    ("convex", "exponent_V", "convex.exponent_V"),
    ("convex", "growth_report_for_psi", "convex.growth_report_for_psi"),
    ("convex", "check_growth_condition", "convex.check_growth_condition"),
    ("orlicz", "build_N", "orlicz.build_N"),
    ("orlicz", "conjugate_young_function", "orlicz.conjugate_young_function"),
    ("orlicz", "conjugate_young_point", "orlicz.conjugate_young_point"),
    ("orlicz", "conjugate_young", "orlicz.conjugate_young"),
    ("orlicz", "luxemburg_norm", "orlicz.luxemburg_norm"),
    ("orlicz", "orlicz_holder_check", "orlicz.orlicz_holder_check"),
    ("duality", "associate_bound", "duality.associate_bound"),
    ("duality", "associate_norm_oracle", ORACLE),
    ("duality", "setfunction_norm", "duality.setfunction_norm"),
    ("duality", "verify_representation", "duality.verify_representation"),
    ("duality", "step_integral", "duality.step_integral"),
    ("bphi", "bphi_norm", "bphi.bphi_norm"),
    ("bphi", "psi_from_phi", "bphi.psi_from_phi"),
    ("bphi", "membership_check", "bphi.membership_check"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("psi", "PsiFunction", "__call__", "psi.eval"),
    ("orlicz", "YoungFunction", "__call__", "orlicz.young_eval"),
    ("measure", "DiscreteMeasureSpace", "function", "measure.function"),
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder with per-name aggregates; one instance per traced run."""

    def __init__(self) -> None:
        self.enabled = False
        self.query_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._originals: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        busy = end - start
        self.calls[name] += 1
        self.busy[name] += busy
        self.self_time[name] += busy - child
        if self._stack:
            self._stack[-1][3] += busy
        if name in UNKEPT:
            return
        if len(self.spans) < SPAN_LIMIT:
            parent = next((frame[0] for frame in reversed(self._stack)
                           if frame[1] not in UNKEPT), None)
            self.spans.append((span_id, parent, self.query_id, name, start,
                               end))
        else:
            self.dropped_spans += 1

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, counter: str, fn):
        tracer = self

        def callback(*args):
            tracer.counts[counter] += 1
            return fn(*args)

        return callback

    def _hooks(self, name: str):
        """Counters recorded at a boundary: (before, after) or (None, None)."""
        if name == "measure.lp_norms":
            def before(args, kwargs):
                f = args[0]
                ps = np.asarray(_arg(args, kwargs, 1, "ps"), dtype=float)
                nz = int(np.count_nonzero(f.value_array))
                elems = ps.size * nz
                self.count("measure.lp_norms.elems", elems)
                self.peak("measure.lp_norms.peak_alloc_mb", elems * 8 / 1e6)
                return args, kwargs
            return before, None
        if name in ("search.grid_refine_max", "search.min_feasible"):
            counter = name + ".evals"

            def before(args, kwargs):
                return ((self._counted(counter, args[0]),) + tuple(args[1:]),
                        kwargs)
            after = None
            if name == "search.grid_refine_max":
                def after(args, kwargs, result):
                    values = kwargs.get("values")
                    if values is None:
                        return
                    grid_best = np.asarray(values, dtype=float)[result[2]]
                    if result[1] > grid_best:
                        self.count("search.grid_refine_max.polished")
            return before, after
        if name in ("psi.eval", "orlicz.young_eval"):
            def before(args, kwargs):
                self.count(name + ".points", np.size(args[1]))
                return args, kwargs
            return before, None
        if name == "convex.young_fenchel_table":
            def before(args, kwargs):
                self.count(name + ".slopes",
                           np.size(_arg(args, kwargs, 1, "vs")))
                return args, kwargs
            return before, None
        if name == "glnorm.gls_norm":
            def before(args, kwargs):
                if self.inside(ORACLE):
                    self.count(ORACLE + ".gls_calls")
                return args, kwargs
            return before, None
        if name == "cli.main":
            position = {}

            def before(args, kwargs):
                position["start"] = sys.stdout.tell()
                return args, kwargs

            def after(args, kwargs, result):
                self.count("cli.main.bytes_out",
                           sys.stdout.tell() - position["start"])
            return before, after
        return None, None

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every target, disabled until `enabled` is set; call once."""
        import glsnum
        modules = {name: sys.modules[f"glsnum.{name}"] for name in
                   ("measure", "search", "psi", "glnorm", "convex", "orlicz",
                    "duality", "bphi", "cli", "verify")}
        homes = list(modules.values()) + [glsnum]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(modules[module_name], attr)
            wrapped = self._wrap(name, original, *self._hooks(name))
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        self._originals.append((home, key, original))
                        setattr(home, key, wrapped)
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(cls, method,
                    self._wrap(name, original, *self._hooks(name)))

    def uninstall(self) -> None:
        for home, key, original in reversed(self._originals):
            setattr(home, key, original)
        self._originals.clear()

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures named as in BENCHMARK.json (without units)."""
        calls, busy, self_s, counts = (self.calls, self.busy, self.self_time,
                                       self.counts)
        out: dict[str, float] = {}
        for name in ("measure.lp_norms", "measure.lp_norm", "measure.function",
                     "search.grid_refine_max", "search.min_feasible",
                     "psi.eval", "convex.young_fenchel_table",
                     "convex.young_fenchel_point",
                     "orlicz.conjugate_young_point", "orlicz.luxemburg_norm",
                     "glnorm.gls_norm", "duality.associate_bound",
                     "bphi.bphi_norm", "cli.main"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ("convex.young_fenchel_table",
                     "convex.growth_report_for_psi", "orlicz.build_N",
                     "orlicz.conjugate_young_function",
                     "glnorm.gls_norm", "glnorm.family_unit_norm_check",
                     ORACLE, "duality.setfunction_norm", "bphi.psi_from_phi",
                     "bphi.membership_check"):
            out[f"{name}.busy_s"] = busy[name]
        for name in ("orlicz.build_N", ORACLE, "orlicz.young_eval"):
            out[f"{name}.calls"] = calls[name]
        elems = counts["measure.lp_norms.elems"]
        out["measure.lp_norms.elems"] = elems
        out["measure.lp_norms.ns_per_elem"] = (
            self_s["measure.lp_norms"] / elems * 1e9 if elems else 0.0)
        out["measure.lp_norms.peak_alloc_mb"] = counts[
            "measure.lp_norms.peak_alloc_mb"]
        out["search.grid_refine_max.evals"] = counts[
            "search.grid_refine_max.evals"]
        refines = calls["search.grid_refine_max"]
        out["search.grid_refine_max.polish_gain_frac"] = (
            counts["search.grid_refine_max.polished"] / refines
            if refines else 0.0)
        out["search.min_feasible.evals"] = counts["search.min_feasible.evals"]
        out["psi.eval.points"] = counts["psi.eval.points"]
        out["convex.young_fenchel_table.slopes"] = counts[
            "convex.young_fenchel_table.slopes"]
        out["orlicz.young_eval.points"] = counts["orlicz.young_eval.points"]
        oracles = calls[ORACLE]
        out[ORACLE + ".gls_per_call"] = (
            counts[ORACLE + ".gls_calls"] / oracles if oracles else 0.0)
        out["cli.main.bytes_out"] = counts["cli.main.bytes_out"]
        for name in ("convex.exponent_V", "convex.check_growth_condition",
                     "orlicz.orlicz_holder_check", "duality.step_integral",
                     "duality.verify_representation"):
            out[f"{name}.calls"] = calls[name]
        return {key: float(value) if math.isfinite(value) else 0.0
                for key, value in out.items()}
