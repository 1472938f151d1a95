"""The scan, witness and fit workloads: operations and what theory expects.

A workload is a list of operations built from the workload seed.  In scan
and witness each operation is one checker call with the verdict the theory
requires, or None where the theory does not fix one.  In fit each operation
is one representability fit, or one batch of scenarios written out as a
report.  Building the list constructs every divergence the workload uses,
family quadrature included; that is the workload's set-up.  Program
functions are looked up when an operation runs, so a tracer installed after
set-up still sees the calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from divergence_lab import checkers, divergences, families, fitting, scenarios

CLEAN = "no_violation_found"
VIOLATION = "violation"

CATALOG_F = ("kl", "tv", "hellinger", "chi2", "tv_squared")
CLEAN_FAMILIES = ("name:square", "name:ramp")
BREGMAN_GENERATORS = 4
GRID = 30                  # binary grid scans evaluate GRID**4 channel points
# the euclidean data-processing searches run at the command-line default
# seed: how long their refinement runs depends on the seed (0.1 s to 5 s per
# search), which would make the workload's time a function of the seed
WITNESS_DPI_SEED = 42


@dataclass
class Op:
    name: str
    call: Callable
    expect: str | None = None
    # for operations that do not return a CheckReport: record -> failure
    # reason, "" when the record is correct
    check: Callable | None = None


def _check(fn_name: str, *args, **kwargs) -> Callable:
    return lambda: getattr(checkers, fn_name)(*args, **kwargs)


def scan_ops(seed: int) -> list[Op]:
    """Divergences that have the property: big batches, no refinement, no fits."""
    ops = []
    for name in CATALOG_F:
        d = divergences.catalog(name)
        ops.append(Op(f"dpi {name} n=2", _check("check_dpi", d, 2, grid=GRID,
                                                random_trials=100_000, seed=seed),
                      CLEAN))
        for n in (3, 4, 5):
            ops.append(Op(f"dpi {name} n={n}",
                          _check("check_dpi", d, n, random_trials=100_000,
                                 seed=seed), CLEAN))
        ops.append(Op(f"decomposable {name}",
                      _check("check_decomposable_binary", d, grid=200), CLEAN))
    kl = divergences.catalog("kl")
    for n in (3, 4, 5):
        ops.append(Op(f"sufficiency kl n={n}",
                      _check("check_sufficiency", kl, n, trials=100_000, seed=seed),
                      CLEAN))
    for spec in CLEAN_FAMILIES:
        d = families.kl_type_from_h(families.h_generator_from_spec(spec))
        ops.append(Op(f"dpi {d.label} n=2",
                      _check("check_dpi", d, 2, grid=GRID, random_trials=100_000,
                             seed=seed), CLEAN))
        ops.append(Op(f"decomposable {d.label}",
                      _check("check_decomposable_binary", d, grid=200), CLEAN))
    rng = np.random.default_rng(seed)
    for k in range(BREGMAN_GENERATORS):
        d = families.bregman_from_symmetric_g(families.random_symmetric_convex_g(rng))
        ops.append(Op(f"sufficiency bregman#{k} n=2",
                      _check("check_sufficiency", d, 2, trials=100_000, seed=seed),
                      CLEAN))
        ops.append(Op(f"decomposable bregman#{k}",
                      _check("check_decomposable_binary", d, grid=200), CLEAN))
    return ops


def _quadratic():
    return divergences.ScalarFunction(
        lambda x: 0.5 * np.square(x) - np.asarray(x, dtype=float),
        deriv=lambda x: np.asarray(x, dtype=float) - 1.0, label="x^2/2-x")


def witness_ops(seed: int) -> list[Op]:
    """Divergences that violate the property: refinement and confirmation."""
    eu = divergences.catalog("euclidean")
    ops = [Op(f"dpi euclidean n={n}",
              _check("check_dpi", eu, n, random_trials=100_000,
                     seed=WITNESS_DPI_SEED), VIOLATION)
           for n in (3, 4, 5)]
    ops += [Op(f"sufficiency euclidean n={n}",
               _check("check_sufficiency", eu, n, trials=10_000, seed=seed),
               VIOLATION)
            for n in (3, 4, 5)]
    bad = families.HGenerator(families.H_CATALOG["decreasing"][0],
                              label="name:decreasing")
    d_bad = families.kl_type_from_h(bad, validate=False)
    ops.append(Op("dpi kl_type[name:decreasing] n=2",
                  _check("check_dpi", d_bad, 2, grid=GRID, random_trials=10_000,
                         seed=seed), VIOLATION))
    quad = _quadratic()
    for n, expect in ((3, VIOLATION), (4, None)):
        ops.append(Op(f"shannon x^2/2-x n={n}",
                      _check("check_shannon_inequality", quad, n,
                             trials=100_000, seed=seed), expect))
    return ops


# fits run with their iteration count capped below fitting.STALL_WINDOW (300),
# so each runs exactly this many iterations at every seed.  Uncapped, their
# iteration counts depend on the sampled pairs, and a run's time on the seed.
FIT_ITERS = 100
# on two symbols kl is both an f-divergence and a Bregman divergence, while
# tv_squared, like brier and euclidean, is a multiple of (p - q)^2: a Bregman
# divergence only.  brier and euclidean would repeat the tv_squared fits.
FIT_NAMES = ("kl", "tv_squared")
REPRESENTABLE = {"fdiv": {"kl"}, "breg": set(FIT_NAMES)}
# an independent residual (below) at most LOW of the divergence's rms means
# representable; at least HIGH means not.  At 100 iterations the fits land
# near 1e-6 and 0.05.
LOW, HIGH = 1e-3, 1e-2
CHECK_PAIRS = 2000
FIT_SCENARIOS = ("q3-sufficiency-n3", "q3-binary-family", "shannon-inequalities")
# the scenarios above take about 0.2 s at one seed, too short to time their
# checker trials steadily; the batch runs them at this many seeds
SCENARIO_SEEDS = 4
OUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"


def _binary_closed_form(name: str, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The divergence between (p, 1-p) and (q, 1-q), without the program."""
    if name == "kl":
        return p * np.log(p / q) + (1 - p) * np.log((1 - p) / (1 - q))
    # tv is |p-q| + |q-p| on two symbols
    return 4.0 * np.square(p - q)


def _fitted_form(kind: str, fit, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The divergence a fitted generator describes, from its knots and values."""
    k, v = fit.knots, fit.values
    if kind == "fdiv":
        return (q * np.interp(p / q, k, v)
                + (1 - q) * np.interp((1 - p) / (1 - q), k, v))
    # g(p) - g(q) - g'(q)(p - q), with g' the segment slopes interpolated
    # between segment midpoints
    slopes = np.diff(v) / np.diff(k)
    mids = 0.5 * (k[:-1] + k[1:])
    return np.interp(p, k, v) - np.interp(q, k, v) - np.interp(q, mids, slopes) * (p - q)


def _fit_checker(kind: str, name: str, seed: int) -> Callable:
    rng = np.random.default_rng([seed, 1])   # a stream of its own, not the fit's
    p, q = rng.uniform(fitting.SAMPLE_LO, fitting.SAMPLE_HI, (2, CHECK_PAIRS))
    target = _binary_closed_form(name, p, q)
    representable = name in REPRESENTABLE[kind]

    def check(fit) -> str:
        v = np.asarray(fit.values, dtype=float)
        if not np.all(np.isfinite(v)):
            return "fitted values not finite"
        slopes = np.diff(v) / np.diff(fit.knots)
        if np.min(np.diff(slopes)) < -1e-8 * (1.0 + np.max(np.abs(slopes))):
            return "fitted generator not convex"
        ratio = (np.sqrt(np.mean(np.square(_fitted_form(kind, fit, p, q) - target)))
                 / np.sqrt(np.mean(np.square(target))))
        if representable and ratio > LOW:
            return f"representable, but residual/rms {ratio:.3g} > {LOW}"
        if not representable and ratio < HIGH:
            return f"not representable, but residual/rms {ratio:.3g} < {HIGH}"
        if fit.passed != representable:
            return f"fit reports passed={fit.passed}, theory requires {representable}"
        return ""
    return check


def _fit(kind: str, d, seed: int) -> Callable:
    fn_name = "fit_f_divergence" if kind == "fdiv" else "fit_bregman_binary"
    return lambda: getattr(fitting, fn_name)(d, seed=seed, iters=FIT_ITERS)


def _scenario_batch(seed: int) -> Callable:
    """The scenarios run at seeds seed .. seed + SCENARIO_SEEDS - 1, one
    report each; returns the reports as written."""
    def call():
        docs = []
        for s in range(seed, seed + SCENARIO_SEEDS):
            results = [scenarios.run_scenario(sid, s) for sid in FIT_SCENARIOS]
            path = OUT_DIR / f"fit-report-seed{s}.json"
            scenarios.emit_report(results, path, "json", s)
            docs.append(json.loads(path.read_bytes()))
        return docs
    return call


def fit_ops(seed: int) -> list[Op]:
    """Representability fits, then the scenarios that run no fit."""
    ops = []
    for name in FIT_NAMES:
        d = divergences.catalog(name)
        for kind in ("fdiv", "breg"):
            ops.append(Op(f"fit {kind} {name}", _fit(kind, d, seed),
                          check=_fit_checker(kind, name, seed)))
    ops.append(Op("scenarios " + " ".join(FIT_SCENARIOS), _scenario_batch(seed)))
    return ops


WORKLOADS = {"scan": scan_ops, "witness": witness_ops, "fit": fit_ops}
