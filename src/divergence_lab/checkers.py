"""Brute-force and randomized checkers for divergence properties.

Every checker hands lazy batches of candidates to one loop, `_search`, which
reduces each batch to the candidate that most exceeds its tolerance, keeps
the best (the earlier on a tie) and re-evaluates it with the checker's own
`confirm`; every divergence check confirms through `_recheck`, so each
witness is a (P, Q, channel) triple with gap = value_after - value_before.
It reports a violation with a concrete witness, or a clean search:
no_violation_found (evidence, not a proof, and the reports say so), or
inconclusive when some evaluations failed.  An empty search is an error.

All randomness is drawn from a single seeded generator in a fixed order, so
identical (spec, config, seed) always produce identical reports.  Every
random scan draws one block of SLICE rows, evaluates it and yields it before
the next block is drawn, so it holds one block's draws and what it derives
from them (normalised, mapped and transformed rows, divergence values, gaps)
at any trial count.  SLICE is the one block constant: it sets both memory
and the draw order, so the reports of a scan with more than SLICE random
trials follow it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain
from typing import Any

import numpy as np

from .divergences import DivergenceError, DivergenceSpec
from .simplex import (Channel, Distribution, SufficiencyScenario, binary_rows,
                      interior_binary_points, merge_transform, push_forward,
                      row_sum, split_transform)

DPI_ABS_TOL = 1e-9
DPI_REL_TOL = 1e-7
SUFFICIENCY_TOL = 1e-9
DECOMPOSABLE_TOL = 1e-10
NOT_A_PROOF = "no_violation_found is evidence from finite search, not a proof"
VIOLATION_SHOWN = "violation is shown by the witness: its gap exceeds the tolerance"
INCONCLUSIVE = ("inconclusive: some evaluations failed (NaN) and no violation "
                "was confirmed, so the search is not evidence")
REFUTED = "the flagged candidate did not survive re-evaluation; "
# the channel of a decomposability witness: the two symbols swap
SWAP = ((0.0, 1.0), (1.0, 0.0))
# line-search steps of the local refinement, tried together
BACKTRACK_STEPS = 0.05 * 0.5 ** np.arange(12)
FD_STEP = 1e-5  # the step of its central differences
# rows per block of every random scan, drawn and evaluated together: it
# bounds a scan's memory and is part of its draw order
SLICE = 4_096


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
        return {"schema": "divergence-lab/1", **asdict(self)}

    @property
    def violated(self) -> bool:
        return self.verdict == "violation"


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_simplex(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform rows on the simplex via exponential normalization."""
    g = rng.standard_exponential(size=(m, n))
    g /= row_sum(g)[:, None]
    return g


def sample_channels(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Row-stochastic matrices: uniform rows, with a deterministic fraction of
    sharpened and vertex (deterministic-map) channels mixed in.

    Uniform rows alone concentrate far from the deterministic maps where
    data-processing violations of non-conforming divergences live, so every
    4th trial sharpens the rows and every 8th uses a random deterministic map.
    """
    A = sample_simplex(rng, m * n, n).reshape(m, n, n)
    sharp = A[3::4]
    sharp **= 8
    sharp /= row_sum(sharp)[..., None]
    det = A[5::8]
    if len(det):
        det[:] = 0.0
        np.put_along_axis(det, rng.integers(0, n, size=det.shape[:2])[..., None],
                          1.0, axis=-1)
    return A


def _blocks(m: int):
    """The sizes of the consecutive blocks of SLICE rows (the last may be
    short) that make up m rows."""
    for lo in range(0, m, SLICE):
        yield min(SLICE, m - lo)


# ---------------------------------------------------------------------------
# the one search loop: scan -> reduce -> confirm
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
    exceeds its tolerance.  A NaN margin (a NaN gap, or inf - inf) is a failed
    evaluation: counted, never the winner; all-failed batches report -inf."""
    with np.errstate(invalid="ignore"):
        margin = gap - tol
    bad = np.isnan(margin)
    margin[bad] = -np.inf
    k = int(np.argmax(margin))
    return (k, float(margin.flat[k]), -np.inf if bad.flat[k] else float(gap.flat[k]),
            int(bad.sum()))


def _best(batches):
    """(margin, gap, point, failures) of the best candidate of all batches: a
    later one wins only with a strictly greater margin.  `point_of(k)` runs
    before the next batch is drawn, so it may read its own batch's arrays;
    each batch is dropped before the next is drawn, so a scan holds one."""
    best = (-np.inf, -np.inf, None)
    failures = 0
    for gap, tol, point_of in batches:
        k, margin, g, fail = _reduce(gap, tol)
        failures += fail
        if margin > best[0]:
            best = (margin, g, point_of(k))
        del gap, tol, point_of
    return (*best, failures)


def _search(prop, trials, config, batches, confirm) -> CheckReport:
    """Check the alphabet size and counts in `config`, run the search and
    judge it: the only code that builds a CheckReport.

    `batches` yields `(gap, tol, point_of)`: the gaps of a batch, their
    tolerances and `point_of(k)`, the candidate at flat index k.  A best gap
    above its tolerance goes to `confirm(point) -> (witness, gap, tol)`: a
    violation if the new gap exceeds tol, else a clean search noted as
    refuted, where a NaN gap is one more failure.
    """
    if config.get("n") is not None and config["n"] < 2:
        raise DivergenceError(f"{prop}: an alphabet needs at least 2 symbols, "
                              f"got n={config['n']}")
    counts = {k: config[k] for k in ("grid", "random_trials", "trials")
              if config.get(k) is not None}
    if trials < 1 or min(counts.values()) < 0:
        raise DivergenceError(f"{prop}: nothing to search with {counts}: counts "
                              "must not be negative and must give a candidate")
    margin, gap, point, failures = _best(batches)
    prefix = ""
    if margin > 0:
        witness, gap, tol = confirm(point)
        if gap > tol:
            return CheckReport(prop, "violation", trials, float(gap), witness,
                               failures, config, note=VIOLATION_SHOWN)
        failures += int(np.isnan(gap))
        prefix = REFUTED
    verdict, note = (("inconclusive", INCONCLUSIVE) if failures
                     else ("no_violation_found", NOT_A_PROOF))
    return CheckReport(prop, verdict, trials, float(gap), None, failures, config,
                       note=prefix + note)


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


def _recheck(d: DivergenceSpec, P, Q, A) -> dict:
    """The witness of (P, Q, channel A): D(P; Q) and D(PA; QA) re-evaluated
    through Distribution, Channel and push_forward, gap = after - before.

    The confirm step of every divergence check runs through here.  The
    values still come from the family kernel that flagged the candidate, so
    this re-check is not independent (ROADMAP 1(c)); a reference evaluator
    goes here.
    """
    p, q, ch = Distribution(P), Distribution(Q), Channel(A)
    before = d.evaluate(p, q)
    after = d.evaluate(push_forward(p, ch), push_forward(q, ch))
    return _witness(P, Q, A, before, after, after - before)


# ---------------------------------------------------------------------------
# data processing
# ---------------------------------------------------------------------------

def _binary_triple(p, q, a, b):
    """(P, Q, channel) of a binary point with channel rows (a, 1-a), (b, 1-b)."""
    return (np.array([p, 1 - p]), np.array([q, 1 - q]),
            np.array([[a, 1 - a], [b, 1 - b]]))


def _dpi_scan_binary_grid(d: DivergenceSpec, grid: int):
    """Exhaustive scan over (p, q, alpha, beta), p, q interior: one batch per beta.

    A channel maps every first coordinate x to x alpha + beta (1 - x), so one
    sweep over beta evaluates all (p, q) pairs of the mapped points for every
    alpha at once.
    """
    x = interior_binary_points(grid)
    ab = np.linspace(0.0, 1.0, grid)
    before = d.evaluate_binary_pairs(x).ravel()
    tol = _gap_tol(before)[None, :]
    for beta in ab:
        mapped = x[None, :] * ab[:, None] + beta * (1.0 - x[None, :])
        after = d.evaluate_binary_pairs(mapped).reshape(grid, -1)

        def point_of(k):
            ia, ip, iq = np.unravel_index(k, (grid, grid, grid))
            return _binary_triple(x[ip], x[iq], ab[ia], beta)
        yield after - before[None, :], tol, point_of


def _dpi_scan_binary_random(d: DivergenceSpec, trials: int, rng: np.random.Generator):
    """Random interior (p, q) and channels (alpha, beta), one block at a time."""
    for m in _blocks(trials):
        p = np.clip(rng.uniform(size=m), 1e-9, 1 - 1e-9)
        q = np.clip(rng.uniform(size=m), 1e-9, 1 - 1e-9)
        a = rng.uniform(size=m)
        b = rng.uniform(size=m)
        before = d.evaluate_batch(binary_rows(p), binary_rows(q))
        after = d.evaluate_batch(binary_rows(p * a + b * (1 - p)),
                                 binary_rows(q * a + b * (1 - q)))
        yield (after - before, _gap_tol(before),
               lambda k: _binary_triple(p[k], q[k], a[k], b[k]))


def _dpi_scan_random(d: DivergenceSpec, n: int, trials: int, rng: np.random.Generator):
    """Random (P, Q, channel) triples on n symbols, one block at a time.
    `point_of` copies its rows, so the best point does not hold its block."""
    for m in _blocks(trials):
        P = sample_simplex(rng, m, n)
        Q = sample_simplex(rng, m, n)
        A = sample_channels(rng, m, n)
        before = d.evaluate_batch(P, Q)
        after = d.evaluate_batch(np.einsum("mi,mij->mj", P, A),
                                 np.einsum("mi,mij->mj", Q, A))
        yield (after - before, _gap_tol(before),
               lambda k: (P[k].copy(), Q[k].copy(), A[k].copy()))


def check_dpi(d: DivergenceSpec, n: int, grid: int = 50,
              random_trials: int = 100_000, seed: int = 42) -> CheckReport:
    """Search for D(P_Y; Q_Y) > D(P_X; Q_X) + tol over channels on n symbols.

    Binary alphabets get an exhaustive (p, q, alpha, beta) grid plus random
    trials; larger alphabets use random (P, Q, channel) triples.  The best
    point of all scans is polished by local refinement and re-evaluated
    before being reported.
    """
    rng = np.random.default_rng(seed)
    config = {"n": n, "grid": grid if n == 2 else None, "random_trials": random_trials,
              "seed": seed, "abs_tol": DPI_ABS_TOL, "rel_tol": DPI_REL_TOL,
              "divergence": d.label}
    if n == 2:
        trials = grid ** 4 + random_trials
        batches = chain(_dpi_scan_binary_grid(d, grid) if grid else (),
                        _dpi_scan_binary_random(d, random_trials, rng))
    else:
        trials = random_trials
        batches = _dpi_scan_random(d, n, random_trials, rng)

    def confirm(point):
        w = _recheck(d, *dpi_local_refine(d, point)[:3])
        return w, w["gap"], _gap_tol(w["value_before"])
    return _search("dpi", trials, config, batches, confirm)


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


def dpi_local_refine(d: DivergenceSpec, witness, iters: int = 200):
    """Coordinate ascent on the gap over the rows P, Q and the channel rows.

    The state is one (n+2, n) array, so a block is a row index.  Per block,
    one evaluate_batch call takes the 2n central differences (step FD_STEP)
    of a projected numeric gradient and one more takes every backtracking
    step; the first step that improves the gap is kept.  Never returns a
    point whose gap is below the input's.
    """
    P0, Q0, A0 = (np.asarray(x, dtype=float) for x in witness)
    n = P0.size
    state = np.vstack([P0, Q0, A0])
    best_gap, vb, va = (float(v[0]) for v in _dpi_gaps(d, state[None]))
    if not np.isfinite(best_gap):
        return P0, Q0, A0, vb, va

    shifts = FD_STEP * np.eye(n)
    for _ in range(iters):
        improved = 0.0
        for r in range(n + 2):
            vec = state[r]
            # one copy of the state per evaluated point, with row r replaced
            X = np.repeat(state[None], 2 * n, axis=0)
            X[:, r] = _project_simplex(np.vstack([vec + shifts, vec - shifts]))
            g = _dpi_gaps(d, X)[0]
            grad = (g[:n] - g[n:]) / (2 * FD_STEP)
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

def _suff_batches(d: DivergenceSpec, n: int, trials: int, rng: np.random.Generator):
    """Batches of sufficiency scenarios, one per block, kind after kind.

    Three scenario kinds: permutations of random pairs, merges of pairs built
    with a proportional coordinate pair, and splits into an empty coordinate.
    Binary alphabets only admit permutations.
    """
    kinds = ["permutation"] if n == 2 else ["permutation", "merge", "split"]
    share = {k: trials // len(kinds) for k in kinds}
    share[kinds[0]] += trials - sum(share.values())
    yield from _permutation_batches(d, n, share.pop("permutation"), rng)
    for kind, m in share.items():
        yield from _merge_split_batches(d, kind, n, m, rng)


def _suff_batch(d, kind, n, Pb, Qb, Pa, Qa, meta):
    before = d.evaluate_batch(Pb, Qb)
    return (_abs_delta(d.evaluate_batch(Pa, Qa), before), SUFFICIENCY_TOL,
            partial(_scenario_from_batch, kind, Pb, Qb, meta, n))


def _permutation_batches(d, n, m, rng):
    for k in _blocks(m):
        P = sample_simplex(rng, k, n)
        Q = sample_simplex(rng, k, n)
        perm = np.argsort(rng.uniform(size=(k, n)), axis=1)
        yield _suff_batch(d, "permutation", n, P, Q, np.take_along_axis(P, perm, 1),
                          np.take_along_axis(Q, perm, 1), {"perm": perm})


def _merge_split_rows(base, t, sigma):
    """The merged and split rows of one block, base's columns scattered by
    sigma: sigma[:, 0] hosts base[:, 0] (split t : 1 - t with sigma[:, 1],
    which the merged rows leave empty) and sigma[:, 2:] take base[:, 1:]."""
    rows = np.arange(len(base))
    merged = np.zeros(sigma.shape)
    merged[rows[:, None], sigma[:, 2:]] = base[:, 1:]
    split = merged.copy()
    merged[rows, sigma[:, 0]] = base[:, 0]
    split[rows, sigma[:, 0]] = t * base[:, 0]
    split[rows, sigma[:, 1]] = (1 - t) * base[:, 0]
    return merged, split


def _merge_split_batches(d, kind, n, m, rng):
    for k in _blocks(m):
        baseP = sample_simplex(rng, k, n - 1)
        baseQ = sample_simplex(rng, k, n - 1)
        t = rng.uniform(size=k)
        sigma = np.argsort(rng.uniform(size=(k, n)), axis=1)
        merged_P, split_P = _merge_split_rows(baseP, t, sigma)
        merged_Q, split_Q = _merge_split_rows(baseQ, t, sigma)
        meta = {"i": sigma[:, 0], "j": sigma[:, 1], "t": t}
        if kind == "merge":
            yield _suff_batch(d, kind, n, split_P, split_Q, merged_P, merged_Q, meta)
        else:
            yield _suff_batch(d, kind, n, merged_P, merged_Q, split_P, split_Q, meta)


def check_sufficiency(d: DivergenceSpec, n: int, trials: int = 10_000,
                      seed: int = 42) -> CheckReport:
    """Equality-form sufficiency: |D before - D after| <= tol over scenarios."""
    rng = np.random.default_rng(seed)
    config = {"n": n, "trials": trials, "seed": seed, "tol": SUFFICIENCY_TOL,
              "divergence": d.label,
              "kinds": "permutation" if n == 2 else "permutation,merge,split"}

    def confirm(scenario):
        w = _recheck(d, scenario.p.probs, scenario.q.probs, scenario.transform.matrix)
        return (dict(w, kind=scenario.kind),
                _abs_delta(w["value_after"], w["value_before"]), SUFFICIENCY_TOL)
    return _search("sufficiency", trials, config, _suff_batches(d, n, trials, rng),
                   confirm)


def _scenario_from_batch(kind, P, Q, meta, n, k) -> SufficiencyScenario:
    """Scenario k of a batch of `kind` on n symbols, before its transform."""
    p, q = Distribution(P[k]), Distribution(Q[k])
    if kind == "permutation":
        # the batch used after[i] = P[perm[i]]; as a channel that is the map
        # x -> argsort(perm)[x]
        return SufficiencyScenario(p, q, Channel.permutation(np.argsort(meta["perm"][k])),
                                   kind)
    i, j = int(meta["i"][k]), int(meta["j"][k])
    ch = (merge_transform(i, j, n) if kind == "merge"
          else split_transform(i, j, float(meta["t"][k]), n))
    return SufficiencyScenario(p, q, ch, kind, i=i, j=j)


def evaluate_scenario(d: DivergenceSpec, scenario: SufficiencyScenario):
    """(value before, value after) for one sufficiency scenario."""
    w = _recheck(d, scenario.p.probs, scenario.q.probs, scenario.transform.matrix)
    return w["value_before"], w["value_after"]


# ---------------------------------------------------------------------------
# decomposability (binary)
# ---------------------------------------------------------------------------

def check_decomposable_binary(d: DivergenceSpec, grid: int = 200) -> CheckReport:
    """Swap symmetry D((p,1-p);(q,1-q)) = D((1-p,p);(1-q,q)) on a grid.

    On binary alphabets this symmetry is equivalent to the divergence being a
    coordinatewise sum.  A witness is the flagged pair with the swap channel.
    """
    config = {"grid": grid, "tol": DECOMPOSABLE_TOL, "divergence": d.label}

    def batches():
        x = interior_binary_points(grid)
        yield (_abs_delta(d.evaluate_binary_pairs(x), d.evaluate_binary_pairs(1.0 - x)),
               DECOMPOSABLE_TOL, lambda k: (x[k // grid], x[k % grid]))

    def confirm(pq):
        p, q = pq
        w = _recheck(d, [p, 1.0 - p], [q, 1.0 - q], SWAP)
        return (w, _abs_delta(w["value_after"], w["value_before"]),
                DECOMPOSABLE_TOL)
    return _search("decomposability", grid * grid, config, batches(), confirm)


# ---------------------------------------------------------------------------
# Shannon-type inequality
# ---------------------------------------------------------------------------

def _shannon_batches(f, n: int, trials: int, rng: np.random.Generator):
    """Random pairs (P, Q) on n symbols, one block at a time."""
    for m in _blocks(trials):
        P = sample_simplex(rng, m, n)
        Q = sample_simplex(rng, m, n)
        lhs = row_sum(P * np.asarray(f(P)))
        rhs = row_sum(P * np.asarray(f(Q)))
        with np.errstate(invalid="ignore"):  # inf - inf: a failure _reduce counts
            gap = lhs - rhs
        yield gap, _gap_tol(lhs), lambda k: (P[k], Q[k])


def check_shannon_inequality(f, n: int, trials: int = 100_000,
                             seed: int = 42) -> CheckReport:
    """Search for sum_k p_k f(p_k) > sum_k p_k f(q_k) over interior pairs."""
    rng = np.random.default_rng(seed)
    config = {"n": n, "trials": trials, "seed": seed, "abs_tol": DPI_ABS_TOL,
              "rel_tol": DPI_REL_TOL,
              "f": getattr(f, "label", None) or repr(f)}

    def confirm(pq):
        # re-evaluate the flagged pair in the scalar path
        p, q = pq
        lhs = float(sum(pi * float(f(pi)) for pi in p))
        rhs = float(sum(pi * float(f(qi)) for pi, qi in zip(p, q)))
        return _witness(p, q, None, lhs, rhs, lhs - rhs), lhs - rhs, _gap_tol(lhs)
    return _search("shannon_inequality", trials, config,
                   _shannon_batches(f, n, trials, rng), confirm)
