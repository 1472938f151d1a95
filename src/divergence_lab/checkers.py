"""Brute-force and randomized checkers for divergence properties.

Every checker scans batches of candidates, reduces each batch to the one that
most exceeds its tolerance, then re-evaluates the best and reports it as a
violation with a concrete witness, or reports a clean search.  A clean search
is no_violation_found (evidence, not a proof, and the reports say so), or
inconclusive when some evaluations failed.

All randomness is drawn from a single seeded generator in a fixed batch
order, so identical (spec, config, seed) always produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .divergences import DivergenceSpec
from .simplex import (Channel, Distribution, SufficiencyScenario,
                      merge_transform, push_forward, row_sum, split_transform)

DPI_ABS_TOL = 1e-9
DPI_REL_TOL = 1e-7
SUFFICIENCY_TOL = 1e-9
DECOMPOSABLE_TOL = 1e-10
NOT_A_PROOF = "no_violation_found is evidence from finite search, not a proof"
VIOLATION_SHOWN = "violation is shown by the witness: its gap exceeds the tolerance"
INCONCLUSIVE = ("inconclusive: some evaluations failed (NaN) and no violation "
                "was confirmed, so the search is not evidence")
REFUTED = "the flagged candidate did not survive re-evaluation; "
# line-search steps of the local refinement, tried together
BACKTRACK_STEPS = 0.05 * 0.5 ** np.arange(12)


@dataclass
class CheckReport:
    """Outcome of a property check, JSON-serializable with stable field order."""

    property: str
    # "violation": a re-evaluated witness exceeds the tolerance;
    # "no_violation_found": none found and every evaluation succeeded;
    # "inconclusive": none found, but some evaluations failed (`failures`)
    verdict: str
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
    return g / row_sum(g)[:, None]


def sample_channels(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Row-stochastic matrices: uniform rows, with a deterministic fraction of
    sharpened and vertex (deterministic-map) channels mixed in.

    Uniform rows alone concentrate far from the deterministic maps where
    data-processing violations of non-conforming divergences live, so every
    4th trial sharpens the rows and every 8th uses a random deterministic map.
    """
    A = sample_simplex(rng, m * n, n).reshape(m, n, n)
    sharp = A[3::4] ** 8
    A[3::4] = sharp / row_sum(sharp)[..., None]
    det = A[5::8]
    if len(det):
        det[:] = np.eye(n)[rng.integers(0, n, size=det.shape[:2])]
    return A


def _binary_rows(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float).ravel()
    rows = np.empty((p.size, 2))
    rows[:, 0] = p
    np.subtract(1.0, p, out=rows[:, 1])
    return rows


# ---------------------------------------------------------------------------
# the shared reduce -> confirm path
# ---------------------------------------------------------------------------

def _gap_tol(before):
    return DPI_ABS_TOL + DPI_REL_TOL * np.abs(before)


def _abs_delta(a, b):
    """|a - b| for the equality checks: equal same-sign infinities give 0, and
    any other non-finite difference is NaN, a failed evaluation."""
    a, b = np.asarray(a), np.asarray(b)
    delta = np.abs(a - b)
    return np.where(np.isinf(a) & (a == b), 0.0,
                    np.where(np.isfinite(delta), delta, np.nan))


def _reduce(gap: np.ndarray, tol):
    """(flat index, margin, gap, failures) of the candidate whose gap most
    exceeds its tolerance.  A NaN gap is a failed evaluation: it is counted
    and never wins, and a batch of failures reports a gap of -inf."""
    bad = np.isnan(gap)
    margin = np.where(bad, -np.inf, gap - tol)
    k = int(np.argmax(margin))
    return (k, float(margin.flat[k]), -np.inf if bad.flat[k] else float(gap.flat[k]),
            int(bad.sum()))


def _witness(P, Q, channel, before, after, gap) -> dict:
    return {
        "P": [float(v) for v in P],
        "Q": [float(v) for v in Q],
        "channel": None if channel is None else [[float(v) for v in row]
                                                 for row in channel],
        "value_before": float(before),
        "value_after": float(after),
        "gap": float(gap),
    }


def _clean(prop, trials, max_gap, failures, config, prefix="") -> CheckReport:
    """A search that confirmed no violation; failed evaluations make it
    inconclusive rather than evidence."""
    verdict, note = (("inconclusive", INCONCLUSIVE) if failures
                     else ("no_violation_found", NOT_A_PROOF))
    return CheckReport(prop, verdict, trials, float(max_gap), None, failures,
                       config, note=prefix + note)


def _confirm(prop, trials, failures, config, witness, gap, tol) -> CheckReport:
    """Report a re-evaluated candidate: a violation when its gap still exceeds
    `tol`, otherwise a clean search (a NaN re-evaluation is one more failure)."""
    if gap > tol:
        return CheckReport(prop, "violation", trials, float(gap), witness,
                           failures, config, note=VIOLATION_SHOWN)
    return _clean(prop, trials, gap, failures + int(np.isnan(gap)), config, REFUTED)


# ---------------------------------------------------------------------------
# data processing
# ---------------------------------------------------------------------------

def _binary_triple(p, q, a, b):
    """(P, Q, channel) of a binary point with channel rows (a, 1-a), (b, 1-b)."""
    return (np.array([p, 1 - p]), np.array([q, 1 - q]),
            np.array([[a, 1 - a], [b, 1 - b]]))


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
        k, margin, gap, fail = _reduce(after - before[None, :], tol[None, :])
        failures += fail
        if margin > best[0]:
            ia, ipq = np.unravel_index(k, after.shape)
            best = (margin, gap, _binary_triple(Pf[ipq], Qf[ipq], ab[ia], beta))
    return (*best, failures)


def _dpi_scan_binary_random(d: DivergenceSpec, trials: int, rng: np.random.Generator):
    p = np.clip(rng.uniform(size=trials), 1e-9, 1 - 1e-9)
    q = np.clip(rng.uniform(size=trials), 1e-9, 1 - 1e-9)
    a = rng.uniform(size=trials)
    b = rng.uniform(size=trials)
    before = d.evaluate_batch(_binary_rows(p), _binary_rows(q))
    after = d.evaluate_batch(_binary_rows(p * a + b * (1 - p)),
                             _binary_rows(q * a + b * (1 - q)))
    k, margin, gap, failures = _reduce(after - before, _gap_tol(before))
    return margin, gap, _binary_triple(p[k], q[k], a[k], b[k]), failures


def _dpi_scan_random(d: DivergenceSpec, n: int, trials: int, rng: np.random.Generator,
                     chunk: int = 20000):
    best = (-np.inf, -np.inf, None)
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
        # rank candidates by how far they exceed their own tolerance
        k, margin, gap, fail = _reduce(after - before, _gap_tol(before))
        failures += fail
        if margin > best[0]:
            best = (margin, gap, (P[k].copy(), Q[k].copy(), A[k].copy()))
        done += m
    return (*best, failures)


def check_dpi(d: DivergenceSpec, n: int, grid: int = 50,
              random_trials: int = 100_000, seed: int = 42) -> CheckReport:
    """Search for D(P_Y; Q_Y) > D(P_X; Q_X) + tol over channels on n symbols.

    Binary alphabets get an exhaustive (p, q, alpha, beta) grid plus random
    trials; larger alphabets use random (P, Q, channel) triples.  The best
    point of all scans is polished by local refinement and re-checked
    scalar-wise before being reported.
    """
    rng = np.random.default_rng(seed)
    config = {"n": n, "grid": grid if n == 2 else None, "random_trials": random_trials,
              "seed": seed, "abs_tol": DPI_ABS_TOL, "rel_tol": DPI_REL_TOL,
              "divergence": d.label}
    if n == 2:
        trials = grid ** 4 + random_trials
        scans = [_dpi_scan_binary_grid(d, grid)] if grid else []
        if random_trials:
            scans.append(_dpi_scan_binary_random(d, random_trials, rng))
    else:
        trials = random_trials
        scans = [_dpi_scan_random(d, n, random_trials, rng)]
    failures = sum(s[3] for s in scans)
    margin, gap, point, _ = max(scans, key=lambda s: s[0],
                                default=(-np.inf, 0.0, None, 0))
    if margin <= 0:
        return _clean("dpi", trials, gap, failures, config)
    P, Q, A, _, _ = dpi_local_refine(d, point)
    # double-evaluation guard: recompute the gap through the scalar path
    p, q, ch = Distribution(P), Distribution(Q), Channel(A)
    vb, va = d.evaluate(p, q), d.evaluate(push_forward(p, ch), push_forward(q, ch))
    return _confirm("dpi", trials, failures, config, _witness(P, Q, A, vb, va, va - vb),
                    va - vb, _gap_tol(vb))


def _project_simplex(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of V onto the probability simplex."""
    U = np.sort(V, axis=1)[:, ::-1]
    # the refinement projects non-finite rows on purpose; they never win
    with np.errstate(invalid="ignore"):
        css = np.cumsum(U, axis=1) - 1.0
    n = V.shape[1]
    # the last index at which the sorted row still exceeds its running threshold
    rho = n - 1 - np.argmax((U * np.arange(1, n + 1) > css)[:, ::-1], axis=1)
    theta = css[np.arange(len(V)), rho] / (rho + 1.0)
    return np.maximum(V - theta[:, None], 0.0)


def _dpi_gaps(d: DivergenceSpec, X: np.ndarray):
    """(gap, before, after) of every state X[k] = (P, Q, channel rows), from one
    evaluate_batch call."""
    m = len(X)
    PY = np.matmul(X[:, :1], X[:, 2:])[:, 0]
    QY = np.matmul(X[:, 1:2], X[:, 2:])[:, 0]
    v = d.evaluate_batch(np.vstack([X[:, 0], PY / row_sum(PY)[:, None]]),
                         np.vstack([X[:, 1], QY / row_sum(QY)[:, None]]))
    return v[m:] - v[:m], v[:m], v[m:]


def dpi_local_refine(d: DivergenceSpec, witness, iters: int = 200,
                     fd_step: float = 1e-5):
    """Coordinate ascent on the gap over the rows P, Q and the channel rows.

    The state is one (n+2, n) array, so a block is a row index.  Per block,
    one evaluate_batch call takes the 2n central differences of a projected
    numeric gradient and one more takes every backtracking step; the first
    step that improves the gap is kept.  Never returns a point whose gap is
    below the input's.
    """
    P0, Q0, A0 = (np.asarray(x, dtype=float) for x in witness)
    n = P0.size
    state = np.vstack([P0, Q0, A0])
    best_gap, vb, va = (float(v[0]) for v in _dpi_gaps(d, state[None]))
    if not np.isfinite(best_gap):
        return P0, Q0, A0, vb, va

    shifts = fd_step * np.eye(n)
    for _ in range(iters):
        improved = 0.0
        for r in range(n + 2):
            vec = state[r]
            # one copy of the state per evaluated point, with row r replaced
            X = np.repeat(state[None], 2 * n, axis=0)
            X[:, r] = _project_simplex(np.vstack([vec + shifts, vec - shifts]))
            g = _dpi_gaps(d, X)[0]
            grad = (g[:n] - g[n:]) / (2 * fd_step)
            X = np.repeat(state[None], len(BACKTRACK_STEPS), axis=0)
            X[:, r] = _project_simplex(vec + BACKTRACK_STEPS[:, None] * grad)
            cand, cb, ca = _dpi_gaps(d, X)
            up = np.flatnonzero(cand > best_gap)
            if up.size:
                k = up[0]
                improved += cand[k] - best_gap
                best_gap, vb, va = float(cand[k]), float(cb[k]), float(ca[k])
                state[r] = X[k, r]
        if improved < 1e-12:
            break
    return state[0], state[1], state[2:], vb, va


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
    best = (-np.inf, -np.inf, None)
    failures = 0
    total = 0
    for kind, Pb, Qb, Pa, Qa, meta in _suff_batches(n, trials, rng):
        before = d.evaluate_batch(Pb, Qb)
        after = d.evaluate_batch(Pa, Qa)
        k, margin, delta, fail = _reduce(_abs_delta(after, before), SUFFICIENCY_TOL)
        failures += fail
        total += len(before)
        if margin > best[0]:
            best = (margin, delta, _scenario_from_batch(kind, Pb[k], Qb[k], meta, k, n))
    margin, max_dev, scenario = best
    if margin <= 0:
        return _clean("sufficiency", total, max_dev, failures, config)
    before, after = evaluate_scenario(d, scenario)
    wit = _witness(scenario.p.probs, scenario.q.probs, scenario.transform.matrix,
                   before, after, after - before)
    return _confirm("sufficiency", total, failures, config, dict(wit, kind=scenario.kind),
                    _abs_delta(after, before), SUFFICIENCY_TOL)


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
    k, margin, gap, failures = _reduce(_abs_delta(a, b), DECOMPOSABLE_TOL)
    if margin <= 0:
        return _clean("decomposability", grid * grid, gap, failures, config)
    # re-evaluate the flagged pair (row 0) and its swap (row 1) in one batch
    P2 = _binary_rows([Pf[k], 1.0 - Pf[k]])
    Q2 = _binary_rows([Qf[k], 1.0 - Qf[k]])
    before, after = d.evaluate_batch(P2, Q2)
    gap = _abs_delta(before, after)
    return _confirm("decomposability", grid * grid, failures, config,
                    _witness(P2[0], Q2[0], None, before, after, gap), gap,
                    DECOMPOSABLE_TOL)


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
    lhs = row_sum(P * np.asarray(f(P)))
    rhs = row_sum(P * np.asarray(f(Q)))
    k, margin, gap, failures = _reduce(lhs - rhs, _gap_tol(lhs))
    if margin <= 0:
        return _clean("shannon_inequality", trials, gap, failures, config)
    # re-evaluate the flagged pair in the scalar path
    p, q = P[k], Q[k]
    lhs2 = float(sum(pi * float(f(pi)) for pi in p))
    rhs2 = float(sum(pi * float(f(qi)) for pi, qi in zip(p, q)))
    return _confirm("shannon_inequality", trials, failures, config,
                    _witness(p, q, None, lhs2, rhs2, lhs2 - rhs2), lhs2 - rhs2,
                    _gap_tol(lhs2))
