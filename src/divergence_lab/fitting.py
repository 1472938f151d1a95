"""Representability probes: is a binary divergence expressible in the
f-divergence form, or in the Bregman form, up to fitting residual?

Both probes solve a shape-constrained least-squares problem over the values
of a piecewise-linear convex function on a knot grid.  Feasibility is kept
at every iterate by parameterizing with segment slopes and projecting onto
nondecreasing slope sequences with scipy's isotonic regression (pool adjacent
violators), which is exactly the convexity constraint on second differences.
One regularized linear solve, by conjugate gradients preconditioned with a
banded Cholesky factor, gives the starting point; an accelerated
projected-gradient loop with a monotone best-iterate record does the
constrained polish, and stops once its projected step is stationary.
`probe(kind, seed)` builds all but the target once, so every `.fit(d)` of a
form shares its design and band factor; the diagonal preconditioner, the
loop's Lipschitz constant and the warm-start system all come from one normal
matrix A^T A.  The sample pairs are stratified over [SAMPLE_LO, SAMPLE_HI],
with both ends sampled, so the fitted generator is held by data across the
whole range it is checked on.  numpy/scipy only; only a probe imports scipy.

The pass/fail threshold is scale-free (residual against the root-mean-square
of the divergence over the sample set) and is surfaced in every result
rather than hidden: it is an artifact choice, not a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import DivergenceError, DivergenceSpec
from .simplex import binary_rows

MAX_ITERS = 10_000
STATIONARITY_TOL = 1e-9          # converged iff L ||step||_W^2 <= this * max(f, f_pass)
PASS_SCALE = 1e-5                # passed iff residual <= PASS_SCALE * rms(D)
SAMPLE_LO, SAMPLE_HI = 0.05, 0.95
SAMPLE_PAIRS = 4000              # default sample pairs of both fit forms
KNOTS = {"fdiv": 2001, "breg": 801}  # default knots of each fit form
RATIO_LO, RATIO_HI = 0.05, 20.0
WARM_SMOOTHING = 1e-4            # second-difference weight of the warm start


def pav_nondecreasing(y: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Project a sequence onto nondecreasing sequences (pool adjacent violators).

    With weights this is the projection in the diag(w) norm, which is what
    the preconditioned gradient steps need.
    """
    from scipy.optimize import isotonic_regression
    return isotonic_regression(y, weights=w).x


@dataclass
class ConvexPiecewiseLinearFit:
    """A fitted convex piecewise-linear function plus fit diagnostics.

    `stop_reason` is "converged" when the last projected step was
    stationary and "max_iters" when the iteration cap ended the loop.
    `stationarity` is the number the stop rule compared with
    STATIONARITY_TOL (inf when no iteration ran).
    """

    knots: np.ndarray
    values: np.ndarray
    residual: float               # rms fit error over the sample set
    rms_target: float             # rms of the divergence over the sample set
    threshold: float
    passed: bool
    iterations: int
    stop_reason: str
    stationarity: float

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.knots, self.values)

    def summary(self) -> dict:
        return {"residual": float(self.residual),
                "passed": bool(self.passed),
                "threshold": float(self.threshold),
                "rms_target": float(self.rms_target),
                "iterations": int(self.iterations),
                "stop_reason": self.stop_reason,
                "stationarity": float(self.stationarity)}


# ---------------------------------------------------------------------------
# shared constrained least-squares machinery
# ---------------------------------------------------------------------------

class _SlopeParam:
    """Values as cumulative sums of slopes, pinned to 0 at one knot."""

    def __init__(self, knots: np.ndarray, pin: int):
        self.dx = np.diff(knots)
        self.pin = pin

    def values(self, s: np.ndarray) -> np.ndarray:
        c = np.concatenate([[0.0], np.cumsum(s * self.dx)])
        return c - c[self.pin]

    def grad_slopes(self, gv: np.ndarray) -> np.ndarray:
        # adjoint of values(): gv is a gradient w.r.t. knot values
        w = gv.copy()
        w[self.pin] -= gv.sum()
        rc = np.cumsum(w[::-1])[::-1]
        return self.dx * rc[1:]


def _interp_entries(x, knots, weights):
    j = np.clip(np.searchsorted(knots, x) - 1, 0, len(knots) - 2)
    t = (x - knots[j]) / (knots[j + 1] - knots[j])
    rows = np.concatenate([np.arange(len(x)), np.arange(len(x))])
    cols = np.concatenate([j, j + 1])
    data = np.concatenate([weights * (1 - t), weights * t])
    return rows, cols, data


class FitProbe:
    """One fit form at one seed, built once and shared by every `fit` of it:
    only the target depends on the divergence.

    It holds the sampled binary rows, the sparse design A from (rows, cols,
    data) triples (repeated entries add), the slopes pinned to 0 at the middle
    knot, and what derives from the normal matrix G = A^T A, formed once: the
    preconditioner w (the squared column norms of the slope design, summed
    from G's entries), its Lipschitz constant L (power iteration with G), the
    warm-start matrix M = G + WARM_SMOOTHING * scale * R + 1e-14 * scale * I
    (R penalizes second differences, scale is G's largest diagonal entry) and
    `chol`, the lower banded Cholesky factor of M's band of width 2, or of
    M's diagonal alone when that band is not positive definite.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray, knots: np.ndarray, parts):
        import scipy.linalg as sla
        import scipy.sparse as sp
        K = len(knots)
        rows, cols, data = (np.concatenate(x) for x in zip(*parts))
        self.A = A = sp.csr_matrix((data, (rows, cols)), shape=(len(p), K))
        self.At = At = A.T
        self.P, self.Q, self.knots = binary_rows(p), binary_rows(q), knots
        self.par = par = _SlopeParam(knots, K // 2)
        G = (At @ A).tocsc()
        # slope j moves every knot above j by dx_j, less the pinned knot's
        # move, so its squared column norm is dx_j^2 times the sum of G_kl
        # over k, l > j, or over k, l <= j when j < pin: upto[j] sums G over
        # max(k, l) <= j and onward[j] over min(k, l) >= j
        g = G.tocoo()
        upto = np.cumsum(np.bincount(np.maximum(g.row, g.col), g.data, minlength=K))
        onward = np.cumsum(np.bincount(np.minimum(g.row, g.col), g.data,
                                       minlength=K)[::-1])[::-1]
        j = np.arange(K - 1)
        w = par.dx ** 2 * np.where(j < par.pin, upto[:-1], onward[1:])
        self.w = np.maximum(w, 1e-12 * max(float(w.max()), 1e-300))
        self.winv = 1.0 / self.w
        sqrt_winv = np.sqrt(self.winv)
        # Lipschitz constant in the preconditioned metric via power iteration
        z = np.ones(K - 1) + 1e-3 * np.sin(np.arange(K - 1))
        nz = 1.0
        for _ in range(60):
            z2 = sqrt_winv * par.grad_slopes(G @ par.values(sqrt_winv * z))
            nz = float(np.linalg.norm(z2))
            if nz == 0:
                break
            z = z2 / nz
        self.L = max(nz * 1.01, 1e-300)
        scale = max(float(G.diagonal().max()), 1e-300)
        D2 = sp.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(K - 2, K))
        R = (D2.T @ D2).tocsc()
        self.M = M = (G + WARM_SMOOTHING * scale * R + 1e-14 * scale * sp.eye(K)).tocsr()
        # the band holds R's full width and G's coupling within each half
        band = np.array([np.pad(M.diagonal(-k), (0, k)) for k in range(3)])
        try:
            self.chol = sla.cholesky_banded(band, lower=True)
        except sla.LinAlgError:
            self.chol = np.sqrt(band[:1])

    def fit(self, d: DivergenceSpec,
            iters: int = MAX_ITERS) -> ConvexPiecewiseLinearFit:
        """Fit the form to d: a warm start, then an accelerated, diagonally
        preconditioned projected gradient over slopes.

        The warm start solves the regularized system for A^T y and projects
        the slopes of the solution onto nondecreasing sequences; a solve that
        fails or is not finite starts from zero slopes.  A target that is not
        finite at every sample pair is an error.  The PAV projection runs in
        the preconditioner's metric, so every iterate is feasible
        (nondecreasing slopes, i.e. nonnegative second differences).  The fit
        passes when its residual is at most PASS_SCALE * rms(y), that is when
        the objective is at most f_pass; the stop test scales by f_pass at
        least, since progress below it cannot change the verdict.
        """
        import scipy.linalg as sla
        import scipy.sparse.linalg as spla
        A, At, par, w, winv, L = self.A, self.At, self.par, self.w, self.winv, self.L
        y = d.evaluate_batch(self.P, self.Q)
        if bad := np.count_nonzero(~np.isfinite(y)):
            raise DivergenceError(f"{d.label} is not finite at {bad} of {len(y)} fit pairs")

        def objective(s):
            r = A @ par.values(s) - y
            return 0.5 * float(r @ r), r

        pre = spla.LinearOperator(self.M.shape, lambda x: sla.cho_solve_banded((self.chol, True), x))
        v0, info = spla.cg(self.M, At @ y, rtol=1e-12, M=pre)
        if info != 0 or not np.all(np.isfinite(v0)):
            v0 = np.zeros(len(self.knots))  # zero slopes
        s = pav_nondecreasing(np.diff(v0) / np.diff(self.knots))
        f_best, r = objective(s)
        s_prev, r_prev, s_best, tk = s, r, s, 1.0
        f_pass = 0.5 * PASS_SCALE ** 2 * float(y @ y)
        it, stop_reason, stationarity = 0, "max_iters", np.inf
        while it < iters:
            it += 1
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            c = (tk - 1.0) / t_next
            yk = s + c * (s - s_prev)
            # values() is linear, so the residual at yk extrapolates r, r_prev
            gy = par.grad_slopes(At @ (r + c * (r - r_prev)))
            s_new = pav_nondecreasing(yk - winv * gy / L, w)
            f_new, r_new = objective(s_new)
            if f_new < f_best:
                f_best, s_best = f_new, s_new
            s_prev, s, r_prev, r, tk = s, s_new, r, r_new, t_next
            step = yk - s_new
            stationarity = L * float(step @ (w * step)) / max(f_best, f_pass, 1e-300)
            if stationarity <= STATIONARITY_TOL:
                stop_reason = "converged"
                break
        v = par.values(s_best)
        rms = float(np.sqrt(np.mean((A @ v - y) ** 2)))
        rms_target = float(np.sqrt(np.mean(y ** 2)))
        thr = PASS_SCALE * rms_target
        return ConvexPiecewiseLinearFit(self.knots, v, rms, rms_target, thr,
                                        rms <= thr, it, stop_reason, stationarity)


def probe(kind: str, seed: int = 0, sample_pairs: int = SAMPLE_PAIRS,
          knots: int | None = None) -> FitProbe:
    """The "fdiv" form of fit_f_divergence or the "breg" form of
    fit_bregman_binary at `seed`, on `knots` knots (KNOTS[kind] if None)."""
    if kind not in KNOTS:
        raise ValueError(f"unknown fit form {kind!r}; known: fdiv, breg")
    K = KNOTS[kind] if knots is None else knots
    if sample_pairs < 1 or K < 3:
        raise DivergenceError(f"{kind} fit needs at least 1 sample pair and 3 "
                              f"knots, got sample_pairs={sample_pairs}, knots={K}")
    # stratified draws: one uniform in each 1/m of [SAMPLE_LO, SAMPLE_HI] for
    # p, and a permutation of a second stratified set for q, with each set's
    # lowest and highest stratum pinned to the range's ends, so the samples
    # span the range the fits are checked on.  The edge samples meet random
    # partners: pairs (lo, lo) and (hi, hi) are zero rows in both forms, and
    # pairs (lo, hi) and (hi, lo) lone extreme ratios that slow the f-fit
    rng = np.random.default_rng(seed)
    strata = (np.arange(sample_pairs) + rng.uniform(size=(2, sample_pairs))) / sample_pairs
    strata[:, 0], strata[:, -1] = 0.0, 1.0
    p = SAMPLE_LO + (SAMPLE_HI - SAMPLE_LO) * strata[0]
    q = SAMPLE_LO + (SAMPLE_HI - SAMPLE_LO) * rng.permutation(strata[1])
    if kind == "fdiv":
        grid = np.geomspace(RATIO_LO, RATIO_HI, K)
        grid[K // 2] = 1.0  # geometric center of [0.05, 20]; pin exactly
        return FitProbe(p, q, grid, [_interp_entries(p / q, grid, q),
                                     _interp_entries((1 - p) / (1 - q), grid, 1 - q)])
    m = sample_pairs
    grid = np.linspace(SAMPLE_LO - 0.01, SAMPLE_HI + 0.01, K)
    mids = 0.5 * (grid[:-1] + grid[1:])
    dx = np.diff(grid)
    parts = [_interp_entries(p, grid, np.ones(m)),
             _interp_entries(q, grid, -np.ones(m))]
    # -g2'(q)(p-q): slopes of the two segments around q, midpoint-interpolated
    jq = np.clip(np.searchsorted(mids, q) - 1, 0, K - 3)
    tq = np.clip((q - mids[jq]) / (mids[jq + 1] - mids[jq]), 0.0, 1.0)
    w = -(p - q)
    for seg, frac in ((jq, 1.0 - tq), (jq + 1, tq)):
        parts += [(np.arange(m), seg, -w * frac / dx[seg]),
                  (np.arange(m), seg + 1, w * frac / dx[seg])]
    return FitProbe(p, q, grid, parts)


def fit_f_divergence(d: DivergenceSpec, sample_pairs: int = SAMPLE_PAIRS,
                     knots: int = KNOTS["fdiv"], seed: int = 0,
                     iters: int = MAX_ITERS) -> ConvexPiecewiseLinearFit:
    """Least-squares fit of q f(p/q) + (1-q) f((1-p)/(1-q)) to d on binary pairs.

    f is convex piecewise-linear on a geometric ratio grid with a knot pinned
    to f(1) = 0.  Sample pairs keep p, q in [0.05, 0.95] so infinite or huge
    divergence values cannot dominate the least squares.  On binary alphabets
    the form is blind to multiples of (x - 1), so fitted values are only
    determined modulo that direction.
    """
    return probe("fdiv", seed, sample_pairs, knots).fit(d, iters)


def fit_bregman_binary(d: DivergenceSpec, sample_pairs: int = SAMPLE_PAIRS,
                       knots: int = KNOTS["breg"], seed: int = 0,
                       iters: int = MAX_ITERS) -> ConvexPiecewiseLinearFit:
    """Least-squares fit of g2(p) - g2(q) - g2'(q)(p-q) to d on binary pairs.

    g2 is convex piecewise-linear on a uniform grid; its derivative comes
    from the knot slopes, interpolated between segment midpoints.  The
    Bregman form is blind to affine parts of g2, so fitted values are only
    meaningful up to an affine offset.
    """
    return probe("breg", seed, sample_pairs, knots).fit(d, iters)

