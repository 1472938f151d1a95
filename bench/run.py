"""divergence-lab benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py --workload {scan,fit,witness,verify,all} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it imports divergence_lab from the
checkout's src/ and writes only to .bench_out/ at the checkout root.

Every run happens in a fresh interpreter (bench/worker.py) started by this
process, one at a time (a closed loop with one caller), with the BLAS and
OpenMP thread counts pinned to 1.  With --trace 0 the last line of standard
output is the result with the end-to-end metrics; with --trace 1 a separate
traced run reports the per-layer metrics.  --workload all runs each
workload in turn (untraced, then traced when --trace 1) and prints the
tracing overhead against the untraced run.  The lines above the last one
give every metric with its unit and sample count, the environment, and any
failed operation.  See bench/README.md for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("scan", "fit", "witness", "verify")
SETUP_SAMPLES = 3          # set-ups per run; setup_s is their median
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s",
              "peak_rss_mb": "MB"}
# printed with the end-to-end metrics but left out of the result line: on
# witness each is one call's latency, which spreads too much between runs
# to hold to a bound
LATENCY = {"check_p50_s": "s", "check_tail_s": "s"}
class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONPATH=str(ROOT / "src"))
    return env


def _worker(workload: str, seed: int, seconds: float, trace: int,
            setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its rank;
    the maximum when there are fewer than 11 samples."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    k = len(v) - 11
    return v[k], 100.0 * (k + 1) / len(v)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of a workload: end-to-end metrics, or per-layer when traced."""
    run = _worker(workload, seed, seconds, trace)
    ops = run["ops"]
    failed = [op for op in ops if op["failed"]]
    res = {"workload": workload, "seed": seed, "trace": trace,
           "env": {**run["env"], "commit": _commit(), "seed": seed,
                   "blas_threads": BLAS_THREADS},
           "correct": not failed, "attempted": len(ops), "failed": len(failed),
           "failures": failed}
    lat = run["latencies"]
    n_ops = sum(len(p) for p in lat)
    if trace:
        layers = dict(run["layers"])
        layers["trace.wall_s"] = run["wall_s"]
        layers["trace.overhead_s"] = layers["trace.spans"] * layers["trace.span_cost_s"]
        layers["checkers.confirmed_ratio"] = (
            run["confirmed"] / run["witnesses"] if run["witnesses"] else 1.0)
        res["metrics"] = {k: (layers[k], u, len(run["passes"]))
                          for k, u in PER_LAYER.items()}
        return res
    setups = [_worker(workload, seed, 0, 0, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)] + [run["setup_s"]]
    tails = [_tail(p) for p in lat]
    values = {
        "wall_s": (run["wall_s"], len(run["passes"])),
        "setup_s": (statistics.median(setups), len(setups)),
        "trials_per_s": (run["trials"] / run["trial_s"], n_ops),
        "check_p50_s": (statistics.median(statistics.median(p) for p in lat), n_ops),
        "check_tail_s": (statistics.median(t for t, _ in tails), n_ops),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
    }
    res["metrics"] = {k: (values[k][0], u, values[k][1]) for k, u in END_TO_END.items()}
    res["latency"] = {k: (values[k][0], u, values[k][1]) for k, u in LATENCY.items()}
    res["tail_percentile"] = tails[0][1]
    res["fail_rate"] = len(failed) / len(ops)
    return res


def _print_table(res: dict) -> None:
    env = res["env"]
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']} "
          + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    print(f"{'metric':42s} {'value':>16s}  {'unit':6s} samples")
    for name, (value, unit, n) in {**res["metrics"], **res.get("latency", {})}.items():
        print(f"{name:42s} {value:16.6g}  {unit:6s} {n}")
    if "fail_rate" in res:
        print(f"{'fail_rate':42s} {res['fail_rate']:16.6g}  {'ratio':6s} "
              f"{res['attempted']}")
        print(f"# check_tail_s is the p{res['tail_percentile']:.4g} of each pass")
    for op in res["failures"]:
        print(f"# FAILED {op['name']}: {op['failed']}")


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u, _) in metrics.items()}})


def _save(res: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=2) + "\n")


def run_all(seed: int, seconds: float, trace: int) -> str:
    """Every workload untraced and, with trace, traced; one combined line
    over all the runs."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        runs = [measure(workload, seed, seconds, 0)]
        if trace:
            runs.append(measure(workload, seed, seconds, 1))
        for res in runs:
            _save(res)
            _print_table(res)
            metrics.update({f"{workload}.{k}": v for k, v in
                            {**res["metrics"], **res.get("latency", {})}.items()})
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
        if trace:
            traced = runs[1]["metrics"]["trace.wall_s"][0]
            plain = runs[0]["metrics"]["wall_s"][0]
            metrics[f"{workload}.trace_overhead_s"] = (traced - plain, "s", 1)
            print(f"# {workload}: traced wall_s {traced:.4f} s - untraced "
                  f"{plain:.4f} s = overhead {traced - plain:.4f} s")
    return _result_line(correct, attempted, failed, metrics)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure as many whole passes as fit in this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "divergence_lab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no divergence_lab sources under {ROOT / 'src'}\n")
        return 2
    try:
        if args.workload == "all":
            print(run_all(args.seed, args.seconds, args.trace))
            return 0
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    _save(res)
    _print_table(res)
    print(_result_line(res["correct"], res["attempted"], res["failed"],
                       res["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
