"""Brute-force and randomized checkers for divergence properties.

Every check is a draw and a judge, `judge(before, after) -> (gap, tol)`.
The draw yields blocks of rows before and after their map; `_search` runs
one loop, `_scan`, that evaluates and judges every block, reduces it to the
candidate that most exceeds its tolerance, keeps the best (the earlier on a
tie) and re-checks it under the same judge.  Data processing, sufficiency
and decomposability candidates are (P, Q, channel) triples that `_search`
re-checks through `_recheck` (after local refinement, for data processing),
which evaluates them through `evaluate_scenario`, the one evaluator of a
triple; the Shannon check re-evaluates its pairs in its own scalar path.
The binary data-processing grid and the decomposability swap are one draw,
`_grid_binary`, the swap being its channel alpha = 0, beta = 1, and the
sufficiency and decomposability checks share one equality judge.  A
report is a violation with a concrete witness, or a clean search:
no_violation_found (evidence, not a proof), or inconclusive when some
evaluations failed.  An empty search is an error.

All randomness is drawn from a single seeded generator in a fixed order, so
identical (spec, config, seed) always produce identical reports.  A random
draw yields blocks of SLICE rows, each evaluated and judged before the next
is drawn, so a scan holds about one block at any trial count.  SLICE is the
one block constant: it sets both memory and the draw order, so the reports
of a scan with more than SLICE random trials follow it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Any

import numpy as np

from .divergences import DivergenceError, DivergenceSpec
from .simplex import (Channel, Distribution, binary_rows, interior_binary_points,
                      merge_transform, pair_rows, push_forward, row_sum,
                      split_transform)

SCHEMA = "divergence-lab/1"   # the format of every report, check or scenario
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
        return {"schema": SCHEMA, **asdict(self)}

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


def sample_channels(rng: np.random.Generator, m: int, n: int):
    """(W, S): m unnormalised channels on n symbols and their row sums, so
    that channel k is W[k] / S[k][:, None].  Uniform rows, with a
    deterministic fraction of sharpened and vertex (deterministic-map)
    channels mixed in.

    Uniform rows alone concentrate far from the deterministic maps where
    data-processing violations of non-conforming divergences live, so every
    4th trial sharpens the rows and every 8th uses a random deterministic map.
    A row is an exponential draw g (the stream of `sample_simplex(rng, m * n,
    n)`); sharpening raises the raw g to the 8th power by three squarings,
    since (g/s)^8 / sum (g/s)^8 = g^8 / sum g^8, and a deterministic row is
    one-hot with S exactly 1.  A sharpened row's S is at least max(g)^8, so
    it underflows only if all n draws of the row are below about 1e-38.5.
    """
    W = rng.standard_exponential(size=(m, n, n))
    sharp = W[3::4]
    for _ in range(3):
        np.square(sharp, out=sharp)
    det = W[5::8]
    if len(det):
        det[:] = 0.0
        np.put_along_axis(det, rng.integers(0, n, size=det.shape[:2])[..., None],
                          1.0, axis=-1)
    return W, row_sum(W)


def _blocks(m: int):
    """The sizes of the consecutive blocks of SLICE rows (the last may be
    short) that make up m rows."""
    for lo in range(0, m, SLICE):
        yield min(SLICE, m - lo)


# ---------------------------------------------------------------------------
# the one search loop: scan -> reduce -> re-check
# ---------------------------------------------------------------------------

def _gap_tol(before):
    return DPI_ABS_TOL + DPI_REL_TOL * np.abs(before)


def _abs_delta(a, b):
    """|a - b| for the equality checks: equal same-sign infinities give 0, and
    any other non-finite difference is NaN, a failed evaluation."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):  # inf - inf: repaired below
        delta = np.abs(a - b)
    return np.where(np.isinf(a) & (a == b), 0.0,
                    np.where(np.isfinite(delta), delta, np.nan))


# the judges (before, after) -> (gap, tol): data processing bounds the signed gain
def _dpi_judge(before, after):
    """An infinite D(before) bounds every D(after): its gap is -inf."""
    with np.errstate(invalid="ignore"):
        gap = np.asarray(after - before)
    np.copyto(gap, -np.inf, where=before == np.inf)
    return gap, _gap_tol(before)


def _equality_judge(tol):
    """The judge of the equality checks: |after - before| against tol."""
    return lambda before, after: (_abs_delta(after, before), tol)


def _reduce(gap: np.ndarray, tol):
    """(flat index, margin, gap, failures) of the candidate whose gap most
    exceeds its tolerance.  A NaN margin (a NaN gap, or inf - inf) is a failed
    evaluation: counted, never the winner; all-failed blocks report -inf."""
    with np.errstate(invalid="ignore"):
        margin = gap - tol
    bad = np.isnan(margin)
    margin[bad] = -np.inf
    k = int(np.argmax(margin))
    return (k, float(margin.flat[k]), -np.inf if bad.flat[k] else float(gap.flat[k]),
            int(bad.sum()))


def _scan(evaluate, judge, blocks):
    """The block loop of every check: (margin, gap, point, failures) of the
    candidate that most exceeds its tolerance; a later one wins only with a
    strictly greater margin.  A draw, `blocks`, yields each block's rows
    before (P, Q) and after (PT, QT), valued per row by `evaluate(X, Y)`,
    and `point_of(k)`: the candidate at flat index k, copied out of the
    block, run before the next block is drawn.  A block whose P and Q are
    None (a binary grid's after its first) is judged against the last values
    before.  The draw frees its last block one array at a time as it draws
    the next, and the loop keeps the values until the next block's replace
    them: freed whole, a block lets glibc's malloc trim the heap, to fault it
    in again (48,000 minor faults against 2,750 for a grid-50 binary
    check)."""
    best = (-np.inf, -np.inf, None)
    failures = 0
    for P, Q, PT, QT, point_of in blocks:
        if P is not None:
            before = evaluate(P, Q)
        after = evaluate(PT, QT)
        k, margin, gap, fail = _reduce(*judge(before, after))
        failures += fail
        if margin > best[0]:
            best = (margin, gap, point_of(k))
        del P, Q, PT, QT, point_of
    return (*best, failures)


def _witness(P, Q, channel, before, after, gap) -> dict:
    return {"P": [float(v) for v in P], "Q": [float(v) for v in Q],
            "channel": None if channel is None else np.asarray(channel, float).tolist(),
            "value_before": float(before), "value_after": float(after),
            "gap": float(gap)}


def evaluate_scenario(d: DivergenceSpec, P, Q, A):
    """(D(P; Q), D(PA; QA)) of the triple (P, Q, channel A), evaluated through
    Distribution, Channel and push_forward: the one check that a witness lies
    on the simplex.  Every divergence witness is evaluated here, still
    through the family kernel that flagged it, so not independently
    (ROADMAP 1(c)); a reference evaluator goes here."""
    p, q, ch = Distribution(P), Distribution(Q), Channel(A)
    return d.evaluate(p, q), d.evaluate(push_forward(p, ch), push_forward(q, ch))


def _recheck(d: DivergenceSpec, P, Q, A, kind=None) -> dict:
    """The witness of (P, Q, channel A) from `evaluate_scenario`, gap =
    after - before; a sufficiency candidate adds its `kind`."""
    before, after = evaluate_scenario(d, P, Q, A)
    w = _witness(P, Q, A, before, after, after - before)
    return w if kind is None else dict(w, kind=kind)


def _search(prop, trials, config, blocks, judge, d, evaluate=None, refine=None,
            recheck=_recheck) -> CheckReport:
    """Check the alphabet size and counts in `config`, scan the draw `blocks`
    under `judge(before, after) -> (gap, tol)` and judge the best candidate:
    the only code that builds a CheckReport.

    Rows are evaluated by `evaluate`, `d.evaluate_batch` unless given.  A
    best gap above its tolerance goes through `refine(d, point)`, if given,
    and `recheck(d, *point) -> witness`, and `judge` rules on its values
    again: a violation if the new gap exceeds tol, else a clean search noted
    as refuted, where a NaN gap is one more failure.
    """
    if config.get("n") is not None and config["n"] < 2:
        raise DivergenceError(f"{prop}: an alphabet needs at least 2 symbols, "
                              f"got n={config['n']}")
    counts = {k: config[k] for k in ("grid", "random_trials", "trials")
              if config.get(k) is not None}
    if trials < 1 or min(counts.values()) < 0:
        raise DivergenceError(f"{prop}: nothing to search with {counts}: counts "
                              "must not be negative and must give a candidate")
    margin, gap, point, failures = _scan(evaluate or d.evaluate_batch, judge, blocks)
    prefix = ""
    if margin > 0:
        if refine is not None:
            point = refine(d, point)[:3]
        witness = recheck(d, *point)
        gap, tol = judge(witness["value_before"], witness["value_after"])
        if gap > tol:
            return CheckReport(prop, "violation", trials, float(gap), witness,
                               failures, config, note=VIOLATION_SHOWN)
        failures += int(np.isnan(gap))
        prefix = REFUTED
    verdict, note = (("inconclusive", INCONCLUSIVE) if failures
                     else ("no_violation_found", NOT_A_PROOF))
    return CheckReport(prop, verdict, trials, float(gap), None, failures, config,
                       note=prefix + note)


# ---------------------------------------------------------------------------
# data processing
# ---------------------------------------------------------------------------

def _binary_triple(p, q, a, b):
    """(P, Q, channel) of a binary point with channel rows (a, 1-a), (b, 1-b)."""
    return (np.array([p, 1 - p]), np.array([q, 1 - q]),
            np.array([[a, 1 - a], [b, 1 - b]]))


def _grid_binary(grid: int, alphas, betas):
    """The exhaustive (p, q, alpha, beta) grid, p, q interior, by blocks: one
    per beta, every pair of the points each alpha maps the grid points to by
    x -> x alpha + beta (1 - x) after, and every pair of grid points before,
    given by the first block alone (None after it)."""
    x = interior_binary_points(grid)
    alphas = np.asarray(alphas, dtype=float)
    before = pair_rows(x)
    for beta in betas:
        def point_of(k):
            ia, ip, iq = np.unravel_index(k, (len(alphas), grid, grid))
            return _binary_triple(x[ip], x[iq], alphas[ia], beta)
        yield (*before, *pair_rows(x * alphas[:, None] + beta * (1.0 - x)), point_of)
        before = None, None


def _draw_binary(rng: np.random.Generator, trials: int):
    """Interior (p, q) and channels x -> x alpha + beta (1 - x), by blocks."""
    for m in _blocks(trials):
        p = np.clip(rng.uniform(size=m), 1e-9, 1 - 1e-9)
        q = np.clip(rng.uniform(size=m), 1e-9, 1 - 1e-9)
        a = rng.uniform(size=m)
        b = rng.uniform(size=m)
        yield (binary_rows(p), binary_rows(q), binary_rows(p * a + b * (1 - p)),
               binary_rows(q * a + b * (1 - q)),
               lambda k: _binary_triple(p[k], q[k], a[k], b[k]))


def _draw_channels(rng: np.random.Generator, trials: int, n: int):
    """(P, Q, channel) triples on n symbols and the rows they map to, by blocks.
    The channels stay unnormalised, (W, S) from `sample_channels`: each P
    weights channel row i by P_i / S_i, one division per row rather than
    per channel entry, and only the flagged channel is normalised."""
    for m in _blocks(trials):
        P = sample_simplex(rng, m, n)
        Q = sample_simplex(rng, m, n)
        W, S = sample_channels(rng, m, n)
        yield (P, Q, np.einsum("mi,mij->mj", P / S, W),
               np.einsum("mi,mij->mj", Q / S, W),
               lambda k: (P[k].copy(), Q[k].copy(), W[k] / S[k][:, None]))


def check_dpi(d: DivergenceSpec, n: int, grid: int = 50,
              random_trials: int = 100_000, seed: int = 42) -> CheckReport:
    """Search for D(P_Y; Q_Y) > D(P_X; Q_X) + tol over channels on n symbols:
    an exhaustive (p, q, alpha, beta) grid and random trials on binary
    alphabets, random (P, Q, channel) triples on larger ones.  The best point
    is polished by local refinement before it is re-checked."""
    rng = np.random.default_rng(seed)
    config = {"n": n, "grid": grid if n == 2 else None, "random_trials": random_trials,
              "seed": seed, "abs_tol": DPI_ABS_TOL, "rel_tol": DPI_REL_TOL,
              "divergence": d.label}
    trials = random_trials + (grid ** 4 if n == 2 else 0)
    if n == 2:
        ab = np.linspace(0.0, 1.0, max(grid, 0))  # _search refuses a negative grid
        draw = chain(_grid_binary(grid, ab, ab), _draw_binary(rng, random_trials))
    else:
        draw = _draw_channels(rng, random_trials, n)
    return _search("dpi", trials, config, draw, _dpi_judge, d, refine=dpi_local_refine)


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
    evaluate_batch call, the gap by `_dpi_judge`."""
    m = len(X)
    PY = np.matmul(X[:, :1], X[:, 2:])[:, 0]
    QY = np.matmul(X[:, 1:2], X[:, 2:])[:, 0]
    v = d.evaluate_batch(np.vstack([X[:, 0], PY / row_sum(PY)[:, None]]),
                         np.vstack([X[:, 1], QY / row_sum(QY)[:, None]]))
    return _dpi_judge(v[:m], v[m:])[0], v[:m], v[m:]


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

def _draw_permutation(rng: np.random.Generator, trials: int, n: int):
    """Pairs on n symbols and their rows with two random symbols swapped, by
    blocks: never the identity, and transpositions generate every permutation.
    On two symbols the one transposition is the swap, so the uniforms that
    would rank the symbols are drawn only to keep the stream."""
    for m in _blocks(trials):
        P = sample_simplex(rng, m, n)
        Q = sample_simplex(rng, m, n)
        u = rng.uniform(size=(m, n))
        if n == 2:
            yield (P, Q, P[:, ::-1].copy(), Q[:, ::-1].copy(),
                   lambda k: (P[k].copy(), Q[k].copy(), 1.0 - np.eye(2), "permutation"))
            continue
        sigma = np.argsort(u, axis=1)
        perm = np.tile(np.arange(n), (m, 1))
        np.put_along_axis(perm, sigma[:, :2], sigma[:, 1::-1], axis=1)
        # row k after is P[k, perm[k]]: channel column y is the unit vector perm[k, y]
        yield (P, Q, np.take_along_axis(P, perm, 1), np.take_along_axis(Q, perm, 1),
               lambda k: (P[k].copy(), Q[k].copy(), np.eye(n)[:, perm[k]],
                          "permutation"))


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


def _draw_merge_split(rng: np.random.Generator, trials: int, n: int, kind: str):
    """Pairs on n symbols through a merge of sigma[:, 1] into sigma[:, 0],
    where split rows are proportional, or a split of merged rows' sigma[:, 0]
    into the empty sigma[:, 1], by blocks."""
    for m in _blocks(trials):
        baseP = sample_simplex(rng, m, n - 1)
        baseQ = sample_simplex(rng, m, n - 1)
        t = rng.uniform(size=m)
        sigma = np.argsort(rng.uniform(size=(m, n)), axis=1)
        merged_P, split_P = _merge_split_rows(baseP, t, sigma)
        merged_Q, split_Q = _merge_split_rows(baseQ, t, sigma)
        rows = ((split_P, split_Q, merged_P, merged_Q) if kind == "merge"
                else (merged_P, merged_Q, split_P, split_Q))

        def point_of(k):
            i, j = int(sigma[k, 0]), int(sigma[k, 1])
            ch = (merge_transform(i, j, n) if kind == "merge"
                  else split_transform(i, j, float(t[k]), n))
            return rows[0][k].copy(), rows[1][k].copy(), ch.matrix, kind
        yield (*rows, point_of)


def check_sufficiency(d: DivergenceSpec, n: int, trials: int = 10_000,
                      seed: int = 42) -> CheckReport:
    """Equality-form sufficiency, |D before - D after| <= tol, under
    permutations, merges of a proportional pair and splits into an empty
    symbol, which share the trials; binary alphabets only permute."""
    rng = np.random.default_rng(seed)
    kinds = ["permutation"] if n == 2 else ["permutation", "merge", "split"]
    share = {k: trials // len(kinds) for k in kinds}
    share[kinds[0]] += trials - sum(share.values())
    config = {"n": n, "trials": trials, "seed": seed, "tol": SUFFICIENCY_TOL,
              "divergence": d.label, "kinds": ",".join(k for k in kinds if share[k] > 0)}
    blocks = chain(_draw_permutation(rng, share.pop("permutation"), n),
                   *(_draw_merge_split(rng, m, n, kind) for kind, m in share.items()))
    return _search("sufficiency", trials, config, blocks,
                   _equality_judge(SUFFICIENCY_TOL), d)


# ---------------------------------------------------------------------------
# decomposability (binary)
# ---------------------------------------------------------------------------

def check_decomposable_binary(d: DivergenceSpec, grid: int = 200) -> CheckReport:
    """Swap symmetry D((p,1-p);(q,1-q)) = D((1-p,p);(1-q,q)) on a grid, which
    on binary alphabets is equivalent to the divergence being a coordinatewise
    sum.  The swap is the binary grid's channel alpha = 0, beta = 1, which
    maps x to 1 - x exactly; a witness is the flagged pair with it."""
    config = {"grid": grid, "tol": DECOMPOSABLE_TOL, "divergence": d.label}
    return _search("decomposability", grid * grid, config,
                   _grid_binary(grid, [0.0], [1.0]), _equality_judge(DECOMPOSABLE_TOL), d)


# ---------------------------------------------------------------------------
# Shannon-type inequality
# ---------------------------------------------------------------------------

def _shannon_judge(lhs, rhs):
    with np.errstate(invalid="ignore"):  # inf - inf: a failure _reduce counts
        return lhs - rhs, _gap_tol(lhs)


def _draw_pairs(rng: np.random.Generator, trials: int, n: int):
    """Pairs (P, Q) on n symbols by blocks, as rows (P, P) before, (P, Q) after."""
    for m in _blocks(trials):
        P = sample_simplex(rng, m, n)
        Q = sample_simplex(rng, m, n)
        yield P, P, P, Q, lambda k: (P[k].copy(), Q[k].copy())


def _shannon_recheck(f, p, q) -> dict:
    """The pair's sum p f(p) and sum p f(q), re-evaluated in the scalar path."""
    lhs = float(sum(pi * float(f(pi)) for pi in p))
    rhs = float(sum(pi * float(f(qi)) for pi, qi in zip(p, q)))
    return _witness(p, q, None, lhs, rhs, lhs - rhs)


def check_shannon_inequality(f, n: int, trials: int = 100_000,
                             seed: int = 42) -> CheckReport:
    """Search for sum_k p_k f(p_k) > sum_k p_k f(q_k) over interior pairs."""
    rng = np.random.default_rng(seed)
    config = {"n": n, "trials": trials, "seed": seed, "abs_tol": DPI_ABS_TOL,
              "rel_tol": DPI_REL_TOL,
              "f": getattr(f, "label", None) or repr(f)}
    return _search("shannon_inequality", trials, config, _draw_pairs(rng, trials, n),
                   _shannon_judge, f, recheck=_shannon_recheck,
                   evaluate=lambda X, Y: row_sum(X * np.asarray(f(Y))))
