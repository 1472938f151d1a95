"""Spans around the calls the benchmark makes into divergence_lab.

The tracer replaces public functions of each module with wrappers that
record a span (name, start, end, parent span) and a few counts taken from
the arguments and the result.  Wrappers are installed from outside: the
program is not edited, and every module that bound a function by name
(``from .checkers import check_dpi``) gets the wrapper too, so calls from
``scenarios`` and ``cli`` are seen as well.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer
metrics and ``write_spans`` writes them out once the run has ended.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

FIT_KINDS = ("fdiv", "breg")
FIT_NAMES = ("kl", "tv_squared", "brier", "euclidean")
KERNELS = ("f_divergence", "kl_type", "bregman", "composed")
PROPERTIES = {"dpi": "dpi", "sufficiency": "sufficiency",
              "decomposability": "decomposability",
              "shannon_inequality": "shannon"}
SCENARIO_IDS = ("catalog-dpi", "q1-counterexample", "q2-family-dpi",
                "q2-example-fidelity", "q3-sufficiency-n3", "q3-binary-family",
                "q4-uniqueness", "shannon-inequalities")
_FITS = [f"{k}.{n}" for k in FIT_KINDS for n in FIT_NAMES]

# every per-layer metric and its unit; bench/README.md says what each means
PER_LAYER = {
    **{f"fitting.fit_s.{f}": "s" for f in _FITS},
    **{f"fitting.iterations.{f}": "count" for f in _FITS},
    "fitting.pav_calls": "count", "fitting.pav_s": "s", "fitting.self_s": "s",
    "families.builds": "count", "families.build_f_s": "s",
    "families.bregman_build_s": "s",
    **{f"divergences.rows.{k}": "count" for k in KERNELS},
    **{f"divergences.calls.{k}": "count" for k in KERNELS},
    **{f"divergences.busy_s.{k}": "s" for k in KERNELS},
    "divergences.rows.bregman_boundary": "count",
    "divergences.nonfinite_rows": "count",
    **{f"checkers.busy_s.{p}": "s" for p in PROPERTIES.values()},
    "checkers.sample_s": "s", "checkers.trials": "count",
    "checkers.refine_s": "s", "checkers.refine_calls": "count",
    "checkers.refine_eval_calls": "count", "checkers.confirm_s": "s",
    "checkers.failures": "count", "checkers.violations": "count",
    "checkers.confirmed_ratio": "ratio",
    **{f"scenarios.scenario_s.{s}": "s" for s in SCENARIO_IDS},
    "scenarios.report_s": "s", "cli.import_s": "s",
    "trace.wall_s": "s", "trace.spans": "count", "trace.span_cost_s": "s",
    "trace.overhead_s": "s",
}
CONFIRM_SPANS = ("divergences.evaluate", "checkers.evaluate_scenario")
CHECK_SPANS = ("checkers.check_dpi", "checkers.check_sufficiency",
               "checkers.check_decomposable_binary",
               "checkers.check_shannon_inequality")

# span fields
NAME, START, END, PARENT, RUN, INFO = range(6)


def _kernel_info(args, out):
    spec, Q = args[0], args[2]
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    boundary = int(np.count_nonzero((Q <= 0).any(axis=1))) \
        if spec.family == "bregman" else 0
    return {"family": spec.family, "rows": Q.shape[0], "boundary": boundary,
            "nonfinite": int(np.count_nonzero(~np.isfinite(out)))}


def _check_info(args, report):
    return {"property": report.property, "trials": report.trials,
            "failures": report.failures, "violated": report.violated}


def _fit_info(kind):
    def info(args, fit):
        return {"kind": kind, "name": args[0].label, "iterations": fit.iterations}
    return info


def _scenario_info(args, result):
    return {"id": result.scenario_id}


# (module, attribute, span name, info) -- attribute "Class.method" patches
# the class, so every instance and every caller sees the wrapper
TARGETS = (
    ("divergences", "DivergenceSpec.evaluate_batch", "divergences.evaluate_batch",
     _kernel_info),
    ("divergences", "DivergenceSpec.evaluate", "divergences.evaluate", None),
    ("checkers", "check_dpi", "checkers.check_dpi", _check_info),
    ("checkers", "check_sufficiency", "checkers.check_sufficiency", _check_info),
    ("checkers", "check_decomposable_binary", "checkers.check_decomposable_binary",
     _check_info),
    ("checkers", "check_shannon_inequality", "checkers.check_shannon_inequality",
     _check_info),
    ("checkers", "dpi_local_refine", "checkers.refine", None),
    ("checkers", "sample_simplex", "checkers.sample", None),
    ("checkers", "sample_channels", "checkers.sample", None),
    ("checkers", "evaluate_scenario", "checkers.evaluate_scenario", None),
    ("families", "build_f_from_h", "families.build_f", None),
    ("families", "kl_type_from_h", "families.kl_type", None),
    ("families", "bregman_from_symmetric_g", "families.bregman_build", None),
    ("fitting", "fit_f_divergence", "fitting.fit", _fit_info("fdiv")),
    ("fitting", "fit_bregman_binary", "fitting.fit", _fit_info("breg")),
    ("fitting", "pav_nondecreasing", "fitting.pav", None),
    ("scenarios", "run_scenario", "scenarios.run_scenario", _scenario_info),
    ("scenarios", "emit_report", "scenarios.emit_report", None),
)

# the checker entry points alone: the untraced verify run times its checker
# calls with these (about 50 spans in all)
CHECK_TARGETS = tuple(t for t in TARGETS if t[2] in CHECK_SPANS)
_WITH_INFO = {t[2] for t in TARGETS if t[3] is not None}

PACKAGE = "divergence_lab"


class Tracer:
    """Records spans for one process; `run` labels the spans that follow."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, out)
            return out
        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package bound it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, attr, name, info in self.targets:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, info))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, info)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write_spans(self, path) -> None:
        """One JSON line per span: run, index, name, start, end, parent."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([s[RUN], i, s[NAME], s[START], s[END],
                                     s[PARENT]]) + "\n")


def span_overhead_s(calls: int = 20000) -> float:
    """Cost of one wrapper, from timing a wrapped no-op against a bare one."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop, None)
    elapsed = []
    for fn in (noop, wrapped):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(perf_counter() - t0)
    return max(elapsed[1] - elapsed[0], 0.0) / calls


def _self_times(spans):
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list, index_base: int = 0) -> dict:
    """Per-layer metrics from the spans of one run.

    `spans` is a contiguous slice of a tracer's span list starting at list
    index `index_base`, so parent indices are shifted by it.
    """
    spans = [[s[NAME], s[START], s[END],
              s[PARENT] - index_base if s[PARENT] >= index_base else -1,
              s[RUN], s[INFO]] for s in spans]
    self_s = _self_times(spans)
    # metrics the spans do not give (the run's wall time, the witness
    # re-check, the import time) are filled in by the caller
    m = dict.fromkeys(PER_LAYER, 0)

    def add(key, value):
        m[key] += value

    in_confirm = [False] * len(spans)
    for i, s in enumerate(spans):
        name, dur, parent, info = s[NAME], s[END] - s[START], s[PARENT], s[INFO]
        parent_name = spans[parent][NAME] if parent >= 0 else None
        if parent >= 0:
            in_confirm[i] = in_confirm[parent] or parent_name in CONFIRM_SPANS
        if info is None and name in _WITH_INFO:
            continue  # the call raised; its time stays in its parent's span
        if name == "divergences.evaluate_batch":
            fam = info["family"]
            if fam in KERNELS:
                add(f"divergences.rows.{fam}", info["rows"])
                add(f"divergences.calls.{fam}", 1)
                add(f"divergences.busy_s.{fam}", self_s[i])
            add("divergences.rows.bregman_boundary", info["boundary"])
            add("divergences.nonfinite_rows", info["nonfinite"])
            if parent_name == "checkers.refine":
                add("checkers.refine_eval_calls", 1)
        elif name in CHECK_SPANS:
            add(f"checkers.busy_s.{PROPERTIES[info['property']]}", self_s[i])
            add("checkers.trials", info["trials"])
            add("checkers.failures", info["failures"])
            add("checkers.violations", int(info["violated"]))
        elif name == "checkers.sample":
            add("checkers.sample_s", self_s[i])
        elif name == "checkers.refine":
            add("checkers.refine_s", dur)
            add("checkers.refine_calls", 1)
        elif name in CONFIRM_SPANS:
            if not in_confirm[i]:
                add("checkers.confirm_s", dur)
        elif name == "families.build_f":
            add("families.builds", 1)
            add("families.build_f_s", dur)
        elif name == "families.bregman_build":
            add("families.bregman_build_s", dur)
        elif name == "fitting.fit":
            key = f"{info['kind']}.{info['name']}"
            add(f"fitting.fit_s.{key}", dur)
            add(f"fitting.iterations.{key}", info["iterations"])
            add("fitting.self_s", self_s[i])
        elif name == "fitting.pav":
            add("fitting.pav_calls", 1)
            add("fitting.pav_s", dur)
        elif name == "scenarios.run_scenario":
            add(f"scenarios.scenario_s.{info['id']}", dur)
        elif name == "scenarios.emit_report":
            add("scenarios.report_s", dur)
    m["trace.spans"] = len(spans)
    return m
