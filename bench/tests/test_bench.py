"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/tests -q

The counter test runs every workload twice under the tracer (a few minutes,
most of it two traced `verify all` runs).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import tracing

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# counters that must not depend on timing
DETERMINISTIC = ("fitting.iterations.", "fitting.pav_calls", "divergences.rows.",
                 "divergences.calls.", "checkers.refine_eval_calls",
                 "checkers.trials", "families.builds")


def _run(*args, root=ROOT):
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


def _euclidean_dpi_report(P, Q, A, before, after):
    return {"property": "dpi", "verdict": "violation",
            "config": {"divergence": "euclidean", "abs_tol": 1e-9, "rel_tol": 1e-7},
            "witness": {"P": P, "Q": Q, "channel": A, "value_before": before,
                        "value_after": after, "gap": after - before}}


def test_reference_confirms_true_witness_and_rejects_false_ones():
    # merging the two symbols of P = (1/2, 1/2, 0) away from Q = (0, 0, 1)
    # raises the squared distance from 1.5 to 2
    P, Q = [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]
    merge = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    ok, why = reference.witness_confirmed(_euclidean_dpi_report(P, Q, merge, 1.5, 2.0))
    assert ok, why
    # a gap reported as +inf (a smoothing misfire) is not confirmed
    ok, why = reference.witness_confirmed(
        _euclidean_dpi_report(P, Q, merge, 1.5, math.inf))
    assert not ok and "disagrees" in why
    # neither is a value that differs from the closed form
    ok, why = reference.witness_confirmed(_euclidean_dpi_report(P, Q, merge, 1.5, 2.1))
    assert not ok and "disagrees" in why
    # the identity channel never violates data processing
    eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    ok, why = reference.witness_confirmed(_euclidean_dpi_report(P, Q, eye, 1.5, 1.5))
    assert not ok and "within tolerance" in why


def test_reference_decreasing_family_matches_program():
    from divergence_lab import families
    gen = families.HGenerator(families.H_CATALOG["decreasing"][0],
                              label="name:decreasing")
    d = families.kl_type_from_h(gen, validate=False)
    ref = reference.DIVERGENCES[d.label]
    for p, q in ((0.3, 0.6), (0.05, 0.9), (0.7, 0.2)):
        got = d.evaluate([p, 1 - p], [q, 1 - q])
        want = ref(reference._vec([p, 1 - p]), reference._vec([q, 1 - q]))
        assert abs(got - float(want)) <= 1e-8 * (1 + abs(got))


def test_tracer_reaches_import_sites_and_uninstalls():
    from divergence_lab import checkers, cli, scenarios
    original = checkers.check_dpi
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert scenarios.check_dpi is checkers.check_dpi is cli.check_dpi
        assert checkers.check_dpi is not original
    finally:
        tracer.uninstall()
    assert scenarios.check_dpi is original and cli.check_dpi is original


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = _run("--workload", "scan", "--seed", "1", "--seconds", "1",
                       "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_names_what_run_reports():
    import run
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


def test_fit_closed_forms_match_program():
    import numpy as np
    import workloads
    from divergence_lab import divergences
    p, q = np.array([0.1, 0.5, 0.9]), np.array([0.6, 0.3, 0.2])
    P, Q = np.column_stack([p, 1 - p]), np.column_stack([q, 1 - q])
    for name in workloads.FIT_NAMES:
        got = divergences.catalog(name).evaluate_batch(P, Q)
        want = workloads._binary_closed_form(name, p, q)
        assert np.allclose(got, want, rtol=1e-12, atol=0), name


@pytest.mark.parametrize("workload", ["scan", "fit", "witness", "verify"])
def test_deterministic_counters_repeat(workload):
    seed = 42
    runs = []
    for _ in range(2):
        proc, lines = _run("--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(lines[-1]))
    a, b = (r["metrics"] for r in runs)
    assert set(a) == set(b)
    counters = {k for k in a if k.startswith(DETERMINISTIC)}
    assert counters
    assert {k: a[k]["value"] for k in counters} == {k: b[k]["value"] for k in counters}
    if workload == "verify":
        # a traced verify at the golden seed still writes the golden report
        assert runs[0]["correct"] and runs[0]["failed"] == 0
        assert a["fitting.pav_calls"]["value"] > 0
