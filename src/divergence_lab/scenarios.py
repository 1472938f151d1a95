"""Named verification scenarios driven by the CLI.

Each scenario exercises one claim about divergence families end to end and
returns a structured pass/fail result.  Divergences, checks and fits come
from the other modules; a scenario only combines their numbers (q1's
residual ratio, q2's and q4's largest errors, q3's delta) and compares them
with the thresholds it reports, each written once.

Reports, JSON and markdown, deliberately omit wall-clock runtime so that two
runs with the same seed are byte-identical; runtime stays in
`ScenarioResult.runtime_seconds` and on the CLI's progress lines.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import families, fitting
from .checkers import (SCHEMA, check_decomposable_binary, check_dpi,
                       check_shannon_inequality, check_sufficiency,
                       evaluate_scenario)
from .divergences import (DivergenceSpec, ScalarFunction, catalog,
                          negative_entropy)
from .families import (HGenerator, H_CATALOG, bregman_from_symmetric_g,
                       kl_type_from_h, random_symmetric_convex_g)
from .simplex import interior_binary_points, merge_transform

# the verdict a check must reach where a scenario requires the property to hold
CLEAN = "no_violation_found"


@dataclass
class ScenarioResult:
    scenario_id: str
    claim: str
    status: str            # "pass" | "fail"
    details: dict
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _json_safe(obj):
    """Replace non-finite floats so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return _json_safe(float(obj))
    return obj


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _fit_memo(seed: int):
    """fit(kind, name): the "fdiv" or "breg" fit of a catalog divergence at
    `seed`, computed once per memo.  The fits of a form share one
    `fitting.probe(kind, seed)`, built on that form's first fit, so a run
    that fits nothing builds no probe and no band factor; each run builds its
    own memo."""
    probe = functools.cache(lambda kind: fitting.probe(kind, seed))
    return functools.cache(lambda kind, name: probe(kind).fit(catalog(name)))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_catalog_dpi(seed: int, fit):
    names = ("kl", "tv", "hellinger", "chi2")
    details = {}
    ok = True
    for name in names:
        d = catalog(name)
        reports = [check_dpi(d, 2, grid=50, random_trials=100_000, seed=seed)]
        for n in (3, 4):
            reports.append(check_dpi(d, n, random_trials=100_000, seed=seed))
        details[name] = [r.to_json_dict() for r in reports]
        ok = ok and all(r.verdict == CLEAN for r in reports)
    return ok, details


def _scenario_q1_counterexample(seed: int, fit):
    required = 100.0
    tv2 = catalog("tv_squared")
    dec = check_decomposable_binary(tv2, grid=200)
    dpi = check_dpi(tv2, 2, grid=50, random_trials=10_000, seed=seed)
    fit_tv2 = fit("fdiv", "tv_squared")
    fit_kl = fit("fdiv", "kl")
    ratio = fit_tv2.residual / max(fit_kl.residual, 1e-300)
    ok = dec.verdict == CLEAN and dpi.verdict == CLEAN and ratio >= required
    details = {
        "swap_symmetry": dec.to_json_dict(),
        "dpi": dpi.to_json_dict(),
        "f_fit_residual_tv_squared": fit_tv2.residual,
        "f_fit_residual_kl": fit_kl.residual,
        "residual_ratio": ratio,
        "ratio_required": required,
    }
    return ok, details


_VALID_H = ("name:square", "name:linear", "name:kl", "name:ramp")


def _scenario_q2_family_dpi(seed: int, fit):
    details = {}
    ok = True
    for spec_text in _VALID_H:
        gen = families.h_generator_from_spec(spec_text)
        d = kl_type_from_h(gen)
        rep = check_dpi(d, 2, grid=50, random_trials=10_000, seed=seed)
        details[spec_text] = rep.to_json_dict()
        ok = ok and rep.verdict == CLEAN
    bad = HGenerator(H_CATALOG["decreasing"][0], label="name:decreasing")
    d_bad = kl_type_from_h(bad, validate=False)
    rep_bad = check_dpi(d_bad, 2, grid=50, random_trials=10_000, seed=seed)
    details["name:decreasing"] = rep_bad.to_json_dict()
    ok = ok and rep_bad.violated and rep_bad.max_gap > 1e-6
    return ok, details


def _scenario_q2_fidelity(seed: int, fit):
    del seed, fit  # fully deterministic
    tol = 1e-8
    d_sq = kl_type_from_h(families.h_generator_from_spec("name:square"))
    xs = np.linspace(0.01, 0.99, 1961)
    err_f = float(np.max(np.abs(np.asarray(d_sq.f(xs)) - (0.5 * xs ** 2 - xs + 0.375))))

    x = interior_binary_points(200)
    L = d_sq.evaluate_binary_pairs(x)
    err_L = float(np.max(np.abs(L - 0.5 * (x[:, None] - x[None, :]) ** 2)))

    d_kl = kl_type_from_h(families.h_generator_from_spec("name:kl"))
    L_kl = d_kl.evaluate_binary_pairs(x)
    ref = catalog("kl").evaluate_binary_pairs(x)
    err_kl = float(np.max(np.abs(L_kl - ref)))

    ok = err_f <= tol and err_L <= tol and err_kl <= tol
    return ok, {"max_err_f_vs_closed_form": err_f,
                "max_err_L_vs_half_square": err_L,
                "max_err_L_vs_binary_kl": err_kl,
                "tolerance": tol}


def _scenario_q3_sufficiency(seed: int, fit):
    required = 0.02
    eu = catalog("euclidean")
    before, after = evaluate_scenario(eu, [0.2, 0.2, 0.6], [0.1, 0.1, 0.8],
                                      merge_transform(0, 1, 3).matrix)
    delta_named = abs(after - before)
    rep_eu = check_sufficiency(eu, 3, trials=10_000, seed=seed)
    kl = catalog("kl")
    kl_reports = {n: check_sufficiency(kl, n, trials=10_000, seed=seed)
                  for n in (3, 4, 5)}
    ok = (delta_named >= required - 1e-12
          and rep_eu.violated
          and all(r.verdict == CLEAN and r.max_gap <= 1e-9
                  for r in kl_reports.values()))
    details = {
        "euclidean_named_witness": {
            "P": [0.2, 0.2, 0.6], "Q": [0.1, 0.1, 0.8],
            "transform": "merge(0,1)",
            "value_before": before, "value_after": after,
            "abs_delta": delta_named, "required": required,
        },
        "euclidean_search": rep_eu.to_json_dict(),
        "kl": {str(n): r.to_json_dict() for n, r in kl_reports.items()},
    }
    return ok, details


def _scenario_q3_binary_family(seed: int, fit):
    rng = np.random.default_rng(seed)
    tol = 1e-10
    worst = 0.0
    ok = True
    gens = []
    for _ in range(20):
        g = random_symmetric_convex_g(rng)
        d = bregman_from_symmetric_g(g)
        rep = check_sufficiency(d, 2, trials=1000, seed=seed)
        worst = max(worst, rep.max_gap)
        ok = ok and rep.verdict == CLEAN
        gens.append({"generator": g.label, "max_abs_delta": rep.max_gap})
    ok = ok and worst <= tol
    return ok, {"generators": gens, "worst_abs_delta": worst, "tolerance": tol}


def _scenario_q4_uniqueness(seed: int, fit):
    tol = 1e-9
    # negative entropy's Bregman divergence is kl, pair for pair
    x = interior_binary_points(200)
    negent = DivergenceSpec("bregman", "negative_entropy", G=negative_entropy(), n=2)
    resid = float(np.max(np.abs(negent.evaluate_binary_pairs(x)
                                - catalog("kl").evaluate_binary_pairs(x))))
    table = {}
    for name in ("kl", "brier", "tv_squared", "euclidean"):
        ffit = fit("fdiv", name)
        bfit = fit("breg", name)
        table[name] = {
            "f_fit": ffit.summary(),
            "bregman_fit": bfit.summary(),
            "passes_both": bool(ffit.passed and bfit.passed),
        }
    only_kl = table["kl"]["passes_both"] and not any(
        v["passes_both"] for k, v in table.items() if k != "kl")
    ok = resid <= tol and only_kl
    return ok, {"identity_residual_kl": resid, "identity_tolerance": tol,
                "fits": table, "only_kl_passes_both": only_kl}


def _scenario_shannon(seed: int, fit):
    results = {}
    ok = True
    clog = ScalarFunction(lambda x: -1.0 * np.log(x) + 0.3,
                          deriv=lambda x: -1.0 / np.asarray(x, dtype=float),
                          label="-log(x)+0.3")
    for n in (2, 3, 4):
        rep = check_shannon_inequality(clog, n, trials=100_000, seed=seed)
        results[f"c_log[n={n}]"] = rep.to_json_dict()
        ok = ok and rep.verdict == CLEAN
    quad = ScalarFunction(lambda x: 0.5 * np.square(x) - np.asarray(x, dtype=float),
                          deriv=lambda x: np.asarray(x, dtype=float) - 1.0,
                          label="x^2/2-x")
    rep2 = check_shannon_inequality(quad, 2, trials=100_000, seed=seed)
    rep3 = check_shannon_inequality(quad, 3, trials=100_000, seed=seed)
    results["quadratic[n=2]"] = rep2.to_json_dict()
    results["quadratic[n=3]"] = rep3.to_json_dict()
    ok = ok and rep2.verdict == CLEAN and rep3.violated
    return ok, results


SCENARIOS = {
    "catalog-dpi": (
        "the catalog f-divergences (kl, tv, hellinger, chi2) pass the "
        "data-processing check with zero violations on 2, 3 and 4 symbols",
        _scenario_catalog_dpi),
    "q1-counterexample": (
        "squared total variation is swap-symmetric (a coordinatewise sum on "
        "binary alphabets) and passes the binary data-processing check, yet "
        "no convex f-divergence generator fits it: its fit residual is at "
        "least 100x the kl fit residual",
        _scenario_q1_counterexample),
    "q2-family-dpi": (
        "every distance generated from a nonnegative nondecreasing h passes "
        "the binary data-processing check; a decreasing h yields a violation "
        "witness with gap above 1e-6",
        _scenario_q2_family_dpi),
    "q2-example-fidelity": (
        "the h(x)=x^2 construction reproduces f(x)=x^2/2-x+3/8 and the "
        "divergence (p-q)^2/2 within 1e-8; h(x)=x/(1-x) reproduces the "
        "binary kl divergence within 1e-8",
        _scenario_q2_fidelity),
    "q3-sufficiency-n3": (
        "on three symbols the squared-distance Bregman divergence changes "
        "under a proportional-pair merge (|delta| >= 0.02 at the named "
        "witness) while kl is invariant to 1e-9 across 10^4 random "
        "sufficient transformations on 3, 4 and 5 symbols",
        _scenario_q3_sufficiency),
    "q3-binary-family": (
        "twenty random symmetric convex generators all yield binary Bregman "
        "divergences invariant under permutation scenarios within 1e-10",
        _scenario_q3_binary_family),
    "q4-uniqueness": (
        "the negative-entropy generator solves the Bregman/f-divergence "
        "compatibility identity with x*log(x) to 1e-9, and among kl, brier, "
        "tv_squared and euclidean only kl passes both representability fits",
        _scenario_q4_uniqueness),
    "shannon-inequalities": (
        "f(x)=c*log(x)+b with c<=0 satisfies the Shannon-type inequality on "
        "2, 3 and 4 symbols; f(x)=x^2/2-x satisfies it on 2 symbols only, "
        "with a 3-symbol violation witness found by search",
        _scenario_shannon),
}


def run_scenario(scenario_id: str, seed: int = 42, fit=None) -> ScenarioResult:
    """Run one scenario; `fit` is a `_fit_memo(seed)`, built here if None."""
    if scenario_id not in SCENARIOS:
        raise KeyError(f"unknown scenario {scenario_id!r}; "
                       f"known: {', '.join(SCENARIOS)}")
    claim, fn = SCENARIOS[scenario_id]
    t0 = time.perf_counter()
    ok, details = fn(seed, fit or _fit_memo(seed))
    dt = time.perf_counter() - t0
    return ScenarioResult(scenario_id, claim, "pass" if ok else "fail",
                          details, dt)


def run_all(seed: int = 42) -> list[ScenarioResult]:
    fit = _fit_memo(seed)
    return [run_scenario(sid, seed, fit) for sid in SCENARIOS]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report_json_dict(results: list[ScenarioResult], seed: int) -> dict:
    return _json_safe({
        "schema": SCHEMA,
        "seed": seed,
        "all_pass": all(r.passed for r in results),
        "scenarios": [
            {"id": r.scenario_id, "claim": r.claim, "status": r.status,
             "details": r.details}
            for r in results
        ],
    })


def report_markdown(results: list[ScenarioResult], seed: int) -> str:
    lines = ["# divergence-lab verification report", "",
             f"seed: {seed}", ""]
    lines += ["| scenario | status | claim |", "|---|---|---|"]
    for r in results:
        lines.append(f"| {r.scenario_id} | {r.status} | {r.claim} |")
    lines.append("")
    for r in results:
        lines += [f"## {r.scenario_id}", "",
                  f"status: **{r.status}**", "",
                  "```json",
                  json.dumps(_json_safe(r.details), indent=2),
                  "```", ""]
    return "\n".join(lines)


def emit_report(results: list[ScenarioResult], path, fmt: str = "json",
                seed: int = 42) -> None:
    path = Path(path)
    if fmt == "json":
        payload = json.dumps(report_json_dict(results, seed), indent=2) + "\n"
    elif fmt == "markdown":
        payload = report_markdown(results, seed)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    path.write_text(payload)
