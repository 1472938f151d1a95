"""Brute-force and randomized checkers for divergence properties.

Each checker returns a CheckReport: either no_violation_found or a violation
with a concrete witness that re-evaluates to a gap above tolerance.  A
no_violation_found verdict is evidence, not a proof, and the reports say so.

All randomness is drawn from a single seeded generator in a fixed batch
order, so identical (spec, config, seed) always produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .divergences import DivergenceSpec
from .simplex import (Channel, Distribution, SufficiencyScenario,
                      merge_transform, push_forward, split_transform)

DPI_ABS_TOL = 1e-9
DPI_REL_TOL = 1e-7
SUFFICIENCY_TOL = 1e-9
DECOMPOSABLE_TOL = 1e-10
NOT_A_PROOF = "no_violation_found is evidence from finite search, not a proof"
VIOLATION_SHOWN = "violation is shown by the witness: its gap exceeds the tolerance"


@dataclass
class CheckReport:
    """Outcome of a property check, JSON-serializable with stable field order."""

    property: str
    verdict: str                    # "no_violation_found" | "violation"
    trials: int
    max_gap: float
    witness: dict | None
    failures: int
    config: dict[str, Any] = field(default_factory=dict)
    note: str = NOT_A_PROOF

    def to_json_dict(self) -> dict:
        return {
            "schema": "divergence-lab/1",
            "property": self.property,
            "verdict": self.verdict,
            "trials": self.trials,
            "max_gap": self.max_gap,
            "witness": self.witness,
            "failures": self.failures,
            "config": self.config,
            "note": self.note,
        }

    @property
    def violated(self) -> bool:
        return self.verdict == "violation"


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_simplex(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform rows on the simplex via exponential normalization."""
    g = rng.exponential(size=(m, n))
    return g / g.sum(axis=1, keepdims=True)


def sample_channels(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Row-stochastic matrices: uniform rows, with a deterministic fraction of
    sharpened and vertex (deterministic-map) channels mixed in.

    Uniform rows alone concentrate far from the deterministic maps where
    data-processing violations of non-conforming divergences live, so every
    4th trial sharpens the rows and every 8th uses a random deterministic map.
    """
    A = sample_simplex(rng, m * n, n).reshape(m, n, n)
    idx = np.arange(m)
    sharp = idx % 4 == 3
    if np.any(sharp):
        As = A[sharp] ** 8
        A[sharp] = As / As.sum(axis=2, keepdims=True)
    det = idx % 8 == 5
    k = int(det.sum())
    if k:
        verts = rng.integers(0, n, size=(k, n))
        Ad = np.zeros((k, n, n))
        Ad[np.arange(k)[:, None], np.arange(n)[None, :], verts] = 1.0
        A[det] = Ad
    return A


def _binary_rows(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float).ravel()
    return np.column_stack([p, 1.0 - p])


def _gap_tol(before: np.ndarray) -> np.ndarray:
    return DPI_ABS_TOL + DPI_REL_TOL * np.abs(before)


# ---------------------------------------------------------------------------
# data processing
# ---------------------------------------------------------------------------

def _dpi_scan_binary_grid(d: DivergenceSpec, grid: int):
    """Exhaustive scan over (p, q, alpha, beta); p, q interior, alpha/beta in [0,1]."""
    pq = np.linspace(1.0 / (grid + 1), grid / (grid + 1.0), grid)
    ab = np.linspace(0.0, 1.0, grid)
    P, Q = np.meshgrid(pq, pq, indexing="ij")
    Pf, Qf = P.ravel(), Q.ravel()
    before = d.evaluate_batch(_binary_rows(Pf), _binary_rows(Qf))
    tol = _gap_tol(before)
    best = (-np.inf, -np.inf, None)
    failures = 0
    for beta in ab:
        # vectorize over alpha for this beta
        pt = Pf[None, :] * ab[:, None] + beta * (1.0 - Pf[None, :])
        qt = Qf[None, :] * ab[:, None] + beta * (1.0 - Qf[None, :])
        after = d.evaluate_batch(_binary_rows(pt.ravel()),
                                 _binary_rows(qt.ravel())).reshape(grid, -1)
        gap = after - before[None, :]
        bad = np.isnan(gap)
        if np.any(bad):
            failures += int(bad.sum())
            gap = np.where(bad, -np.inf, gap)
        margin = gap - tol[None, :]
        k = int(np.argmax(margin))
        ia, ipq = np.unravel_index(k, margin.shape)
        if margin[ia, ipq] > best[0]:
            best = (float(margin[ia, ipq]), float(gap[ia, ipq]),
                    (float(Pf[ipq]), float(Qf[ipq]), float(ab[ia]), float(beta),
                     float(before[ipq]), float(after[ia, ipq])))
    return best, failures


def _dpi_scan_binary_random(d: DivergenceSpec, trials: int, rng: np.random.Generator):
    p = np.clip(rng.uniform(size=trials), 1e-9, 1 - 1e-9)
    q = np.clip(rng.uniform(size=trials), 1e-9, 1 - 1e-9)
    a = rng.uniform(size=trials)
    b = rng.uniform(size=trials)
    before = d.evaluate_batch(_binary_rows(p), _binary_rows(q))
    pt = p * a + b * (1 - p)
    qt = q * a + b * (1 - q)
    after = d.evaluate_batch(_binary_rows(pt), _binary_rows(qt))
    gap = after - before
    failures = int(np.isnan(gap).sum())
    gap = np.where(np.isnan(gap), -np.inf, gap)
    margin = gap - _gap_tol(before)
    k = int(np.argmax(margin))
    return (float(margin[k]), float(gap[k]),
            (float(p[k]), float(q[k]), float(a[k]), float(b[k]),
             float(before[k]), float(after[k]))), failures


def _dpi_scan_random(d: DivergenceSpec, n: int, trials: int, rng: np.random.Generator,
                     chunk: int = 20000):
    best = (-np.inf, None)
    worst_tol_margin = -np.inf
    failures = 0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        P = sample_simplex(rng, m, n)
        Q = sample_simplex(rng, m, n)
        A = sample_channels(rng, m, n)
        PY = np.einsum("mi,mij->mj", P, A)
        QY = np.einsum("mi,mij->mj", Q, A)
        before = d.evaluate_batch(P, Q)
        after = d.evaluate_batch(PY, QY)
        gap = after - before
        bad = np.isnan(gap)
        if np.any(bad):
            failures += int(bad.sum())
            gap = np.where(bad, -np.inf, gap)
        # rank candidates by how far they exceed their own tolerance
        margin = gap - _gap_tol(before)
        k = int(np.argmax(margin))
        if margin[k] > worst_tol_margin:
            worst_tol_margin = float(margin[k])
            best = (float(gap[k]), (P[k].copy(), Q[k].copy(), A[k].copy(),
                                    float(before[k]), float(after[k])))
        done += m
    return best, failures


def _witness_dict(P, Q, channel, before, after) -> dict:
    return {
        "P": [float(v) for v in P],
        "Q": [float(v) for v in Q],
        "channel": [[float(v) for v in row] for row in channel],
        "value_before": float(before),
        "value_after": float(after),
        "gap": float(after - before),
    }


def check_dpi(d: DivergenceSpec, n: int, grid: int = 50,
              random_trials: int = 100_000, seed: int = 42) -> CheckReport:
    """Search for D(P_Y; Q_Y) > D(P_X; Q_X) + tol over channels on n symbols.

    Binary alphabets get an exhaustive (p, q, alpha, beta) grid plus random
    trials; larger alphabets use random (P, Q, channel) triples.  A flagged
    point is polished by local refinement and re-checked scalar-wise before
    being reported.
    """
    rng = np.random.default_rng(seed)
    config = {"n": n, "grid": grid if n == 2 else None, "random_trials": random_trials,
              "seed": seed, "abs_tol": DPI_ABS_TOL, "rel_tol": DPI_REL_TOL,
              "divergence": d.label}
    failures = 0
    candidates = []
    trials = 0
    if n == 2:
        if grid:
            (mg, g, arg), fail = _dpi_scan_binary_grid(d, grid)
            failures += fail
            trials += grid ** 4
            candidates.append((mg, g, arg))
        if random_trials:
            (mg, g, arg), fail = _dpi_scan_binary_random(d, random_trials, rng)
            failures += fail
            trials += random_trials
            candidates.append((mg, g, arg))
        if not candidates:
            return CheckReport("dpi", "no_violation_found", 0, 0.0, None, 0, config)
        best_margin, best_gap, best_arg = max(candidates, key=lambda t: t[0])
        if best_margin <= 0:
            return CheckReport("dpi", "no_violation_found", trials, best_gap,
                               None, failures, config)
        p, q, a, b, vb, va = best_arg
        P = np.array([p, 1 - p])
        Q = np.array([q, 1 - q])
        A = np.array([[a, 1 - a], [b, 1 - b]])
    else:
        trials = random_trials
        (best_gap, arg), failures = _dpi_scan_random(d, n, random_trials, rng)
        if arg is None:
            return CheckReport("dpi", "no_violation_found", trials, best_gap,
                               None, failures, config)
        P, Q, A, vb, va = arg
        tol = DPI_ABS_TOL + DPI_REL_TOL * abs(vb)
        if best_gap <= tol:
            return CheckReport("dpi", "no_violation_found", trials, best_gap,
                               None, failures, config)

    P, Q, A, vb, va = dpi_local_refine(d, (P, Q, A))
    # double-evaluation guard: recompute the gap through the scalar path
    vb2, va2 = _dpi_pair_eval(d, P, Q, A)
    gap2 = va2 - vb2
    if gap2 <= DPI_ABS_TOL + DPI_REL_TOL * abs(vb2):
        return CheckReport("dpi", "no_violation_found", trials, float(gap2),
                           None, failures, config,
                           note="flagged point did not survive re-evaluation; "
                                + NOT_A_PROOF)
    return CheckReport("dpi", "violation", trials, float(gap2),
                       _witness_dict(P, Q, A, vb2, va2), failures, config,
                       note=VIOLATION_SHOWN)


def _dpi_pair_eval(d: DivergenceSpec, P, Q, A):
    p = Distribution(P)
    q = Distribution(Q)
    ch = Channel(A)
    return (d.evaluate(p, q),
            d.evaluate(push_forward(p, ch), push_forward(q, ch)))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def dpi_local_refine(d: DivergenceSpec, witness, iters: int = 200,
                     fd_step: float = 1e-5):
    """Coordinate ascent on the gap over (P, Q, channel rows).

    Projected numeric-gradient steps with backtracking; never returns a point
    whose gap is below the input's.
    """
    P0, Q0, A0 = (np.asarray(x, dtype=float) for x in witness)
    n = P0.size

    def gap_of(P, Q, A):
        PY = P @ A
        QY = Q @ A
        before = float(d.evaluate_batch(P[None, :], Q[None, :])[0])
        after = float(d.evaluate_batch(PY[None, :] / PY.sum(), QY[None, :] / QY.sum())[0])
        return after - before, before, after

    blocks = [("P",), ("Q",)] + [("A", r) for r in range(n)]
    state = {"P": P0.copy(), "Q": Q0.copy(), "A": A0.copy()}
    best_gap, vb, va = gap_of(state["P"], state["Q"], state["A"])
    if not np.isfinite(best_gap):
        return P0, Q0, A0, vb, va

    for _ in range(iters):
        improved = 0.0
        for block in blocks:
            if block[0] == "A":
                vec = state["A"][block[1]]
            else:
                vec = state[block[0]]
            g = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = fd_step
                hi = _project_simplex(vec + e)
                lo = _project_simplex(vec - e)
                sub = dict(state)
                sub["A"] = state["A"].copy()
                if block[0] == "A":
                    sub["A"][block[1]] = hi
                else:
                    sub[block[0]] = hi
                up, _, _ = gap_of(sub["P"], sub["Q"], sub["A"])
                if block[0] == "A":
                    sub["A"][block[1]] = lo
                else:
                    sub[block[0]] = lo
                dn, _, _ = gap_of(sub["P"], sub["Q"], sub["A"])
                g[i] = (up - dn) / (2 * fd_step)
            step = 0.05
            for _ in range(12):
                trial = _project_simplex(vec + step * g)
                sub = dict(state)
                sub["A"] = state["A"].copy()
                if block[0] == "A":
                    sub["A"][block[1]] = trial
                else:
                    sub[block[0]] = trial
                cand, cb, ca = gap_of(sub["P"], sub["Q"], sub["A"])
                if cand > best_gap:
                    improved += cand - best_gap
                    best_gap, vb, va = cand, cb, ca
                    if block[0] == "A":
                        state["A"][block[1]] = trial
                    else:
                        state[block[0]] = trial
                    break
                step *= 0.5
        if improved < 1e-12:
            break
    return state["P"], state["Q"], state["A"], vb, va


# ---------------------------------------------------------------------------
# sufficiency
# ---------------------------------------------------------------------------

def _suff_batches(n: int, trials: int, rng: np.random.Generator):
    """Yield (kind, before_P, before_Q, after_P, after_Q, meta) batches.

    Three scenario kinds: permutations of random pairs, merges of pairs built
    with a proportional coordinate pair, and splits into an empty coordinate.
    Binary alphabets only admit permutations.
    """
    kinds = ["permutation"] if n == 2 else ["permutation", "merge", "split"]
    share = {k: trials // len(kinds) for k in kinds}
    share[kinds[0]] += trials - sum(share.values())

    if share.get("permutation"):
        m = share["permutation"]
        P = sample_simplex(rng, m, n)
        Q = sample_simplex(rng, m, n)
        perm = np.argsort(rng.uniform(size=(m, n)), axis=1)
        yield "permutation", P, Q, np.take_along_axis(P, perm, 1), \
            np.take_along_axis(Q, perm, 1), {"perm": perm}

    for kind in ("merge", "split"):
        if not share.get(kind):
            continue
        m = share[kind]
        baseP = sample_simplex(rng, m, n - 1)
        baseQ = sample_simplex(rng, m, n - 1)
        t = rng.uniform(size=m)
        sigma = np.argsort(rng.uniform(size=(m, n)), axis=1)
        rows = np.arange(m)[:, None]
        merged_P = np.zeros((m, n))
        merged_Q = np.zeros((m, n))
        split_P = np.zeros((m, n))
        split_Q = np.zeros((m, n))
        # sigma[:,0] hosts the kept/split coordinate, sigma[:,1] its partner
        merged_P[rows, sigma] = np.column_stack([baseP[:, 0], np.zeros(m), baseP[:, 1:]])
        merged_Q[rows, sigma] = np.column_stack([baseQ[:, 0], np.zeros(m), baseQ[:, 1:]])
        split_P[rows, sigma] = np.column_stack([t * baseP[:, 0], (1 - t) * baseP[:, 0],
                                                baseP[:, 1:]])
        split_Q[rows, sigma] = np.column_stack([t * baseQ[:, 0], (1 - t) * baseQ[:, 0],
                                                baseQ[:, 1:]])
        meta = {"i": sigma[:, 0], "j": sigma[:, 1], "t": t}
        if kind == "merge":
            yield kind, split_P, split_Q, merged_P, merged_Q, meta
        else:
            yield kind, merged_P, merged_Q, split_P, split_Q, meta


def check_sufficiency(d: DivergenceSpec, n: int, trials: int = 10_000,
                      seed: int = 42) -> CheckReport:
    """Equality-form sufficiency: |D before - D after| <= tol over scenarios."""
    rng = np.random.default_rng(seed)
    config = {"n": n, "trials": trials, "seed": seed, "tol": SUFFICIENCY_TOL,
              "divergence": d.label,
              "kinds": "permutation" if n == 2 else "permutation,merge,split"}
    worst = (-np.inf, None)
    failures = 0
    total = 0
    for kind, Pb, Qb, Pa, Qa, meta in _suff_batches(n, trials, rng):
        before = d.evaluate_batch(Pb, Qb)
        after = d.evaluate_batch(Pa, Qa)
        delta = np.abs(after - before)
        bad = ~np.isfinite(delta)
        both_inf = np.isinf(before) & np.isinf(after) & (np.sign(before) == np.sign(after))
        delta = np.where(both_inf, 0.0, delta)
        bad = bad & ~both_inf
        if np.any(bad):
            failures += int(bad.sum())
            delta = np.where(bad, -np.inf, delta)
        total += len(delta)
        k = int(np.argmax(delta))
        if delta[k] > worst[0]:
            scenario = _scenario_from_batch(kind, Pb[k], Qb[k], meta, k, n)
            worst = (float(delta[k]), scenario,
                     float(before[k]), float(after[k]))
    max_dev, scenario = worst[0], worst[1]
    if max_dev <= SUFFICIENCY_TOL:
        return CheckReport("sufficiency", "no_violation_found", total, max_dev,
                           None, failures, config)
    before2, after2 = evaluate_scenario(d, scenario)
    gap2 = abs(after2 - before2)
    if gap2 <= SUFFICIENCY_TOL:
        return CheckReport("sufficiency", "no_violation_found", total, float(gap2),
                           None, failures, config,
                           note="flagged scenario did not survive re-evaluation; "
                                + NOT_A_PROOF)
    wit = _witness_dict(scenario.p.probs, scenario.q.probs,
                        scenario.transform.matrix, before2, after2)
    wit["kind"] = scenario.kind
    return CheckReport("sufficiency", "violation", total, float(gap2), wit,
                       failures, config, note=VIOLATION_SHOWN)


def _scenario_from_batch(kind, P, Q, meta, k, n) -> SufficiencyScenario:
    if kind == "permutation":
        # the batch used after[i] = P[perm[i]]; as a channel that is the map
        # x -> argsort(perm)[x]
        perm = np.argsort(meta["perm"][k])
        return SufficiencyScenario(Distribution(P), Distribution(Q),
                                   Channel.permutation(perm), "permutation")
    i, j = int(meta["i"][k]), int(meta["j"][k])
    if kind == "merge":
        ch = merge_transform(i, j, n)
        return SufficiencyScenario(Distribution(P), Distribution(Q), ch,
                                   "merge", i=i, j=j)
    ch = split_transform(i, j, float(meta["t"][k]), n)
    return SufficiencyScenario(Distribution(P), Distribution(Q), ch,
                               "split", i=i, j=j)


def evaluate_scenario(d: DivergenceSpec, scenario: SufficiencyScenario):
    """(value before, value after) for one sufficiency scenario."""
    pa, qa = scenario.apply()
    return d.evaluate(scenario.p, scenario.q), d.evaluate(pa, qa)


# ---------------------------------------------------------------------------
# decomposability (binary)
# ---------------------------------------------------------------------------

def check_decomposable_binary(d: DivergenceSpec, grid: int = 200) -> CheckReport:
    """Swap symmetry D((p,1-p);(q,1-q)) = D((1-p,p);(1-q,q)) on a grid.

    On binary alphabets this symmetry is equivalent to the divergence being a
    coordinatewise sum.
    """
    config = {"grid": grid, "tol": DECOMPOSABLE_TOL, "divergence": d.label}
    pq = np.linspace(1.0 / (grid + 1), grid / (grid + 1.0), grid)
    P, Q = np.meshgrid(pq, pq, indexing="ij")
    Pf, Qf = P.ravel(), Q.ravel()
    a = d.evaluate_batch(_binary_rows(Pf), _binary_rows(Qf))
    b = d.evaluate_batch(_binary_rows(1.0 - Pf), _binary_rows(1.0 - Qf))
    diff = np.abs(a - b)
    both_inf = np.isinf(a) & np.isinf(b)
    diff = np.where(both_inf, 0.0, diff)
    failures = int(np.isnan(diff).sum())
    diff = np.where(np.isnan(diff), -np.inf, diff)
    k = int(np.argmax(diff))
    max_gap = float(diff[k])
    trials = grid * grid
    if max_gap <= DECOMPOSABLE_TOL:
        return CheckReport("decomposability", "no_violation_found", trials,
                           max_gap, None, failures, config)
    wit = {
        "P": [float(Pf[k]), float(1 - Pf[k])],
        "Q": [float(Qf[k]), float(1 - Qf[k])],
        "channel": None,
        "value_before": float(a[k]),
        "value_after": float(b[k]),
        "gap": max_gap,
    }
    return CheckReport("decomposability", "violation", trials, max_gap, wit,
                       failures, config, note=VIOLATION_SHOWN)


# ---------------------------------------------------------------------------
# Shannon-type inequality
# ---------------------------------------------------------------------------

def check_shannon_inequality(f, n: int, trials: int = 100_000,
                             seed: int = 42) -> CheckReport:
    """Search for sum_k p_k f(p_k) > sum_k p_k f(q_k) over interior pairs."""
    rng = np.random.default_rng(seed)
    config = {"n": n, "trials": trials, "seed": seed, "abs_tol": DPI_ABS_TOL,
              "rel_tol": DPI_REL_TOL,
              "f": getattr(f, "label", None) or repr(f)}
    P = sample_simplex(rng, trials, n)
    Q = sample_simplex(rng, trials, n)
    lhs = (P * np.asarray(f(P))).sum(axis=1)
    rhs = (P * np.asarray(f(Q))).sum(axis=1)
    gap = lhs - rhs
    failures = int(np.isnan(gap).sum())
    gap = np.where(np.isnan(gap), -np.inf, gap)
    margin = gap - _gap_tol(lhs)
    k = int(np.argmax(margin))
    max_gap = float(gap[k])
    if margin[k] <= 0:
        return CheckReport("shannon_inequality", "no_violation_found", trials,
                           max_gap, None, failures, config)
    # re-evaluate the flagged pair in the scalar path
    p, q = P[k], Q[k]
    lhs2 = float(sum(pi * float(f(pi)) for pi in p))
    rhs2 = float(sum(pi * float(f(qi)) for pi, qi in zip(p, q)))
    gap2 = lhs2 - rhs2
    if gap2 <= DPI_ABS_TOL + DPI_REL_TOL * abs(lhs2):
        return CheckReport("shannon_inequality", "no_violation_found", trials,
                           float(gap2), None, failures, config,
                           note="flagged pair did not survive re-evaluation; "
                                + NOT_A_PROOF)
    wit = {
        "P": [float(v) for v in p],
        "Q": [float(v) for v in q],
        "channel": None,
        "value_before": lhs2,
        "value_after": rhs2,
        "gap": float(gap2),
    }
    return CheckReport("shannon_inequality", "violation", trials, float(gap2),
                       wit, failures, config, note=VIOLATION_SHOWN)
