"""One measured run of a workload, in a fresh interpreter.

run.py starts this script for every set-up sample and every run, with the
BLAS thread count pinned and divergence_lab importable from the checkout's
src/.  It prints one JSON object on its last line of standard output.

Set-up is timed from the moment run.py spawned the process
(``--spawned-at``, a CLOCK_MONOTONIC reading) to the end of set-up, so it
includes interpreter start.  ``--setup-only`` stops there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
GOLDEN = ROOT / "reports" / "golden-seed42.json"
GOLDEN_SEED = 42


def _environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _gate_report(doc: dict, expect: str | None) -> tuple[str, int, int]:
    """Failure reason ("" if none), witnesses reported, witnesses confirmed."""
    import reference  # mpmath is loaded only after the measured part
    if expect is not None and doc["verdict"] != expect:
        return f"verdict {doc['verdict']}, theory requires {expect}", 0, 0
    if doc["verdict"] != "violation":
        return "", 0, 0
    ok, why = reference.witness_confirmed(doc)
    return ("" if ok else f"witness not confirmed: {why}"), 1, int(ok)


def _gate_op(op, rec) -> tuple[str, int, int, int]:
    """Failure reason ("" if none), trials, witnesses reported and confirmed,
    for one operation of scan, witness or fit."""
    if isinstance(rec, str):                 # the call raised
        return rec, 0, 0, 0
    if op.check is not None:                 # a fit
        return op.check(rec), 0, 0, 0
    if isinstance(rec, list):                # reports of scenarios
        reason = "" if all(doc["all_pass"] for doc in rec) else "all_pass is false"
        trials = reported = confirmed = 0
        for entry in (e for doc in rec for e in doc["scenarios"]):
            if entry["status"] != "pass":
                reason = reason or f"scenario {entry['id']} failed"
            for rep in _check_reports(entry["details"]):
                why, r, c = _gate_report(rep, None)
                trials += rep["trials"]
                reported, confirmed = reported + r, confirmed + c
                reason = reason or why
        return reason, trials, reported, confirmed
    why, r, c = _gate_report(rec.to_json_dict(), op.expect)
    return why, rec.trials, r, c


def _check_reports(obj):
    """Every CheckReport dict nested in a scenario's details."""
    if isinstance(obj, dict):
        if "verdict" in obj and "witness" in obj and "property" in obj:
            yield obj
        else:
            for v in obj.values():
                yield from _check_reports(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _check_reports(v)


# ---------------------------------------------------------------------------
# verify: `divergence-lab verify all` through cli.main
# ---------------------------------------------------------------------------

def run_verify(args) -> dict:
    t0 = perf_counter()
    import divergence_lab.cli as cli
    import_s = perf_counter() - t0
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        return out
    import tracing

    # untraced, only the checker entry points are timed, for the latency of
    # one checker call
    tracer = tracing.Tracer(tracing.TARGETS if args.trace else tracing.CHECK_TARGETS)
    tracer.install()
    tracer.run = "verify"
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"verify-seed{args.seed}-trace{args.trace}.json"
    path.unlink(missing_ok=True)
    argv = ["verify", "all", "--seed", str(args.seed), "--format", "json",
            "--out", str(path)]
    error = ""
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    except Exception as e:  # a crash is a failed run, reported below
        error = f"raised {type(e).__name__}: {e}"
    wall_s = perf_counter() - t0
    tracer.uninstall()

    ops = []
    payload = path.read_bytes() if path.exists() else b""
    doc = json.loads(payload) if payload else {"scenarios": []}
    by_id = {s["id"]: s for s in doc["scenarios"]}
    golden = {}
    if args.seed == GOLDEN_SEED:
        golden_doc = json.loads(GOLDEN.read_text())
        golden = {s["id"]: s for s in golden_doc["scenarios"]}
        if payload != GOLDEN.read_bytes():
            error = error or "report differs from reports/golden-seed42.json"
    reported = confirmed = 0
    for sid in tracing.SCENARIO_IDS:
        entry = by_id.get(sid)
        reason = error if entry is None else ""
        if entry is not None:
            if entry["status"] != "pass":
                reason = "scenario failed"
            elif golden and entry != golden.get(sid):
                reason = "scenario entry differs from the golden report"
            for rep in _check_reports(entry["details"]):
                why, r, c = _gate_report(rep, None)
                reported, confirmed = reported + r, confirmed + c
                reason = reason or why
        ops.append({"name": sid, "failed": reason})
    if error and not any(op["failed"] for op in ops):
        ops[0]["failed"] = error
    checks = [sp for sp in tracer.spans if sp[tracing.NAME] in tracing.CHECK_SPANS]
    out.update({
        "wall_s": wall_s,
        "passes": [wall_s],
        "latencies": [[sp[tracing.END] - sp[tracing.START] for sp in checks]],
        "trials": sum(sp[tracing.INFO]["trials"] for sp in checks),
        "trial_s": sum(sp[tracing.END] - sp[tracing.START] for sp in checks),
        "ops": ops,
        "witnesses": reported, "confirmed": confirmed,
        "peak_rss_mb": _peak_rss_mb(),
    })
    if args.trace:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["layers"]["cli.import_s"] = import_s
        tracer.write_spans(OUT_DIR / f"spans-verify-seed{args.seed}.jsonl")
    return out


# ---------------------------------------------------------------------------
# scan, witness and fit: closed loop over operations
# ---------------------------------------------------------------------------

def run_checks(args) -> dict:
    t0 = perf_counter()
    import divergence_lab  # noqa: F401  (timed on its own)
    import_s = perf_counter() - t0
    import tracing
    import workloads
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        return out

    # whole passes over the operation list, as many as fit in --seconds
    # (at least one)
    marks = [len(tracer.spans)]
    passes, latencies, records = [], [], []
    start = perf_counter()
    while not passes or (perf_counter() - start + statistics.median(passes)
                         <= args.seconds):
        tracer.run = len(passes)
        lat, recs = [], []
        t_pass = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                rec = op.call()
            except Exception as e:  # a raising check is a failed operation
                rec = f"raised {type(e).__name__}: {e}"
            lat.append(perf_counter() - t0)
            recs.append(rec)
        passes.append(perf_counter() - t_pass)
        marks.append(len(tracer.spans))
        latencies.append(lat)
        records.append(recs)
    tracer.uninstall()

    # correctness gate, outside the timed region; trial_s is the time of the
    # operations that ran checker trials
    results, trials, trial_s, reported, confirmed = [], 0, 0.0, 0, 0
    for recs, lat in zip(records, latencies):
        for op, rec, dt in zip(ops, recs, lat):
            reason, t, r, c = _gate_op(op, rec)
            trials, reported, confirmed = trials + t, reported + r, confirmed + c
            trial_s += dt if t else 0.0
            results.append({"name": op.name, "failed": reason})
    out.update({
        # one pass: each operation's median over the passes, summed, so that
        # a slow moment in one pass moves one operation's sample, not the sum
        "wall_s": sum(statistics.median(op_lat) for op_lat in zip(*latencies)),
        "passes": passes,
        "latencies": latencies, "trials": trials, "trial_s": trial_s,
        "ops": results,
        "witnesses": reported, "confirmed": confirmed,
        "peak_rss_mb": _peak_rss_mb(),
    })
    if args.trace:
        per_pass = [tracing.layer_metrics(tracer.spans[a:b], a)
                    for a, b in zip(marks[:-1], marks[1:])]
        layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        once = tracing.layer_metrics(tracer.spans[:marks[0]])
        # families are built in set-up (scan, witness) or in every pass (the
        # Bregman generators of q3-binary-family in fit): set-up plus one pass
        for key in ("families.builds", "families.build_f_s",
                    "families.bregman_build_s"):
            layers[key] += once[key]
        layers["cli.import_s"] = import_s
        out["layers"] = layers
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=["verify", "scan", "witness", "fit"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    run = run_verify if args.workload == "verify" else run_checks
    out = run(args)
    if not args.setup_only:
        out["env"] = _environment()
        if args.trace:
            import tracing
            out["layers"]["trace.span_cost_s"] = tracing.span_overhead_s()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
