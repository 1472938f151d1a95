import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from divergence_lab import cli, fitting
from divergence_lab.divergences import (DivergenceError, DivergenceSpec,
                                        ScalarFunction, catalog,
                                        negative_entropy)
from divergence_lab.fitting import (ConvexPiecewiseLinearFit, fit_bregman_binary,
                                    fit_f_divergence, pav_nondecreasing)
from divergence_lab.simplex import interior_binary_points


def pav_loop(y, w=None):
    """Reference pool-adjacent-violators loop, one block merge at a time."""
    if w is None:
        w = np.ones(len(y))
    vals, wts, counts = [], [], []
    for yi, wi in zip(y, w):
        v, ww, c = float(yi), float(wi), 1
        while vals and vals[-1] > v:
            pv, pw, pc = vals.pop(), wts.pop(), counts.pop()
            v = (v * ww + pv * pw) / (ww + pw)
            ww += pw
            c += pc
        vals.append(v)
        wts.append(ww)
        counts.append(c)
    return np.repeat(vals, counts)


class TestPAV:
    def test_already_monotone_untouched(self):
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(pav_nondecreasing(y), y)

    def test_pooling(self):
        got = pav_nondecreasing(np.array([3.0, 1.0]))
        assert np.allclose(got, [2.0, 2.0])

    def test_weighted_pooling(self):
        got = pav_nondecreasing(np.array([3.0, 1.0]), np.array([3.0, 1.0]))
        assert np.allclose(got, [2.5, 2.5])

    def test_output_is_nondecreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.normal(size=40)
            w = rng.uniform(0.1, 5.0, size=40)
            out = pav_nondecreasing(y, w)
            assert np.all(np.diff(out) >= -1e-12)

    def test_projection_optimality(self):
        # the weighted PAV output must beat any nearby monotone perturbation
        rng = np.random.default_rng(1)
        y = rng.normal(size=25)
        w = rng.uniform(0.5, 2.0, size=25)
        out = pav_nondecreasing(y, w)
        base = np.sum(w * (out - y) ** 2)
        for _ in range(200):
            trial = np.cumsum(np.abs(rng.normal(size=25)) * 0.01) + out[0] \
                + rng.normal() * 0.01
            trial = np.maximum.accumulate(trial)
            assert np.sum(w * (trial - y) ** 2) >= base - 1e-9

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(2)
        for k in range(50):
            y = rng.normal(size=2000) * 10.0 ** rng.uniform(-3, 3)
            # ties, and an already-monotone run inside the noise
            y[100:140] = y[100]
            y[500:900] = np.sort(y[500:900])
            if k % 2:
                y = y + np.linspace(0.0, 5.0 * np.std(y), 2000)
            w = 10.0 ** rng.uniform(-6, 3, size=2000)
            tol = 1e-12 * (1.0 + np.max(np.abs(y)))
            assert np.max(np.abs(pav_nondecreasing(y) - pav_loop(y))) <= tol
            assert np.max(np.abs(pav_nondecreasing(y, w) - pav_loop(y, w))) <= tol


@pytest.fixture(scope="module")
def kl_fit():
    return fit_f_divergence(catalog("kl"), seed=0)


@pytest.fixture(scope="module")
def brier_fit():
    return fit_bregman_binary(catalog("brier"), seed=0)


def recording(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends (args, result) of every
    call to the returned list."""
    calls, real = [], getattr(module, name)

    def record(*args, **kw):
        calls.append((args, real(*args, **kw)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, record)
    return calls


def dense_warm_start(pr, Aty):
    """A times the dense solve of the probe's regularized system M v = A^T y."""
    return pr.A @ scipy.linalg.solve(pr.M.toarray(), Aty, assume_a="pos")


@pytest.mark.parametrize("fit, knots", [(fit_f_divergence, 2001),
                                         (fit_bregman_binary, 801)])
def test_warm_start_solve_matches_dense(monkeypatch, fit, knots):
    # record the probe a fit builds, its band factorization and its solve,
    # then re-solve the one regularized system densely
    probes = recording(monkeypatch, fitting, "probe")
    factors = recording(monkeypatch, scipy.linalg, "cholesky_banded")
    solves = recording(monkeypatch, scipy.sparse.linalg, "cg")
    kl = catalog("kl")
    start = fit(kl, knots=knots, seed=0, iters=0)
    [(_, pr)] = probes
    A, y = pr.A, kl.evaluate_batch(pr.P, pr.Q)
    assert A.shape[1] == knots and len(factors) == 1
    [((band,), chol)] = factors
    assert pr.chol is chol
    # the factored band is M's, lower form: row k holds M[j + k, j]
    M = pr.M.toarray()
    for k in range(3):
        assert np.array_equal(band[k, :knots - k], np.diag(M, -k))
    [((system, Aty), (v, info))] = solves
    assert system is pr.M and info == 0
    assert np.array_equal(Aty, A.T @ y)
    want = dense_warm_start(pr, Aty)
    assert np.linalg.norm(A @ v - want) <= 1e-9 * np.linalg.norm(want)
    # with no iterations the fit is the projected warm start
    slopes = pav_nondecreasing(np.diff(v) / np.diff(pr.knots))
    assert np.array_equal(start.values, pr.par.values(slopes))


@pytest.mark.parametrize("kind", ["fdiv", "breg"])
def test_warm_start_falls_back_to_the_diagonal(monkeypatch, kind):
    # a band that is not positive definite leaves M's diagonal, which always
    # is, as the preconditioner: the start is the same solve, not zero slopes
    def indefinite(band, **kw):
        raise scipy.linalg.LinAlgError("band is not positive definite")

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", indefinite)
    solves = recording(monkeypatch, scipy.sparse.linalg, "cg")
    pr = fitting.probe(kind, seed=0)
    assert np.array_equal(pr.chol, np.sqrt(pr.M.diagonal())[None, :])
    pr.fit(catalog("kl"), iters=0)
    [((_, Aty), (v, info))] = solves
    assert info == 0
    want = dense_warm_start(pr, Aty)
    assert np.linalg.norm(pr.A @ v - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["fdiv", "breg"])
@pytest.mark.parametrize("seed", [0, 42, 1305])
def test_warm_start_solve_converges(monkeypatch, kind, seed):
    # the band factor holds and conjugate gradients reach rtol 1e-12 for
    # both targets of the representability scenarios
    solves = recording(monkeypatch, scipy.sparse.linalg, "cg")
    pr = fitting.probe(kind, seed)
    assert pr.chol.shape == (3, fitting.KNOTS[kind])
    for name in ("kl", "tv_squared"):
        pr.fit(catalog(name), iters=0)
    assert [info for _, (_, info) in solves] == [0, 0]


def nan_above_15():
    """(x - 1)^2 with NaN above x = 15: an f-divergence that is NaN at the
    fit pairs whose likelihood ratio exceeds 15."""
    f = ScalarFunction(lambda x: np.where(np.asarray(x) > 15, np.nan,
                                          (np.asarray(x) - 1.0) ** 2),
                       label="nan_above_15", perspective_limit=np.inf)
    return DivergenceSpec("f_divergence", "nan_above_15", f=f, validate=False)


@pytest.mark.parametrize("fit", [fit_f_divergence, fit_bregman_binary])
def test_target_that_is_not_finite_is_an_error(monkeypatch, fit):
    # before any solve: a NaN target ran the whole loop on NaN, up to the cap
    solves = recording(monkeypatch, scipy.sparse.linalg, "cg")
    with pytest.raises(DivergenceError,
                       match=r"nan_above_15 is not finite at \d+ of 4000 fit pairs"):
        fit(nan_above_15(), seed=0)
    assert solves == []


@pytest.mark.parametrize("kind, fresh", [("fdiv", fit_f_divergence),
                                         ("breg", fit_bregman_binary)])
def test_shared_probe_carries_no_state_between_fits(kind, fresh):
    # every fit of one probe, in either order, equals a fit on a fresh probe
    names = ("kl", "tv", "hellinger", "chi2", "brier", "euclidean", "tv_squared")
    shared = fitting.probe(kind, seed=4, sample_pairs=300, knots=61)
    want = {name: fresh(catalog(name), sample_pairs=300, knots=61, seed=4, iters=300)
            for name in names}
    for order in (names, names[::-1]):
        for name in order:
            got = shared.fit(catalog(name), iters=300)
            assert got.values.tobytes() == want[name].values.tobytes(), name
            assert got.summary() == want[name].summary(), name


@pytest.mark.parametrize("kind, seed, pairs, knots", [("fdiv", 42, 1000, 501),
                                                     ("breg", 1305, 4000, 801)])
def test_preconditioner_weights_are_slope_column_norms(kind, seed, pairs, knots):
    # w is the squared column norms of the slope design A T, where column j of
    # T holds the knot values of a unit step in slope j; form it densely
    pr = fitting.probe(kind, seed, sample_pairs=pairs, knots=knots)
    T = np.column_stack([pr.par.values(e) for e in np.eye(knots - 1)])
    AT = pr.A.toarray() @ T
    want = np.sum(AT * AT, axis=0)
    want = np.maximum(want, 1e-12 * want.max())
    assert np.max(np.abs(pr.w - want) / want) <= 1e-10


def _fitted_divergence(kind, fit, p, q):
    """The divergence between (p, 1-p) and (q, 1-q) that a fitted generator
    describes, from its knots and values alone."""
    k, v = fit.knots, fit.values
    if kind == "fdiv":
        return q * np.interp(p / q, k, v) + (1 - q) * np.interp((1 - p) / (1 - q), k, v)
    slopes = np.diff(v) / np.diff(k)
    mids = 0.5 * (k[:-1] + k[1:])
    return np.interp(p, k, v) - np.interp(q, k, v) - np.interp(q, mids, slopes) * (p - q)


@pytest.mark.parametrize("kind, fit, seed", [("breg", fit_bregman_binary, 1305),
                                             ("fdiv", fit_f_divergence, 1306)])
def test_kl_fit_holds_across_the_sample_range(kind, fit, seed):
    # held out: pairs of a stream of their own, anywhere in the sampled
    # range. With plain uniform draws no sample pinned the knots near the
    # range's ends, and these fits read 0.0156 and 0.00159 here
    result = fit(catalog("kl"), seed=seed, iters=100)
    rng = np.random.default_rng([seed, 1])
    p, q = rng.uniform(fitting.SAMPLE_LO, fitting.SAMPLE_HI, (2, 2000))
    want = p * np.log(p / q) + (1 - p) * np.log((1 - p) / (1 - q))
    err = _fitted_divergence(kind, result, p, q) - want
    assert np.sqrt(np.mean(err ** 2) / np.mean(want ** 2)) <= 1e-3


@pytest.mark.parametrize("kind", ["fdiv", "breg"])
def test_samples_reach_both_ends_of_the_range(kind):
    pr = fitting.probe(kind, seed=1305)
    for X in (pr.P, pr.Q):
        assert X[:, 0].min() == fitting.SAMPLE_LO
        assert X[:, 0].max() == fitting.SAMPLE_HI


@pytest.mark.parametrize("kind", ["fdiv", "breg"])
@pytest.mark.parametrize("pairs, knots", [(0, None), (-5, None), (200, 2),
                                          (200, 0), (200, -1)])
def test_degenerate_fit_sizes_are_errors(kind, pairs, knots):
    # no pairs, or too few knots for a convex interpolant, raise before any
    # draw instead of iterating to the cap on nothing or failing inside numpy
    with pytest.raises(DivergenceError, match="at least 1 sample pair and 3 knots"):
        fitting.probe(kind, seed=0, sample_pairs=pairs, knots=knots)


@pytest.mark.parametrize("fit", [fit_f_divergence, fit_bregman_binary])
def test_three_knots_fit_cleanly(fit):
    result = fit(catalog("kl"), sample_pairs=200, knots=3, seed=0)
    assert result.stop_reason == "converged"
    assert np.isfinite(result.residual) and np.isfinite(result.stationarity)
    assert len(result.values) == 3


class TestFitFDivergence:
    def test_kl_residual_small(self, kl_fit):
        assert kl_fit.residual <= 1e-6
        assert kl_fit.passed

    def test_kl_recovers_xlogx(self, kl_fit):
        # the binary form cannot see multiples of (x-1), so compare modulo
        # that direction on [0.2, 3]
        x = np.linspace(0.2, 3.0, 200)
        want = x * np.log(x)
        got = np.asarray(kl_fit(x))
        b = np.dot(got - want, x - 1) / np.dot(x - 1, x - 1)
        assert np.max(np.abs(got - want - b * (x - 1))) <= 1e-3

    def test_fit_is_convex(self, kl_fit):
        slopes = np.diff(kl_fit.values) / np.diff(kl_fit.knots)
        assert np.min(np.diff(slopes)) >= -1e-10

    def test_pin_at_one(self, kl_fit):
        assert 1.0 in kl_fit.knots
        k = int(np.where(kl_fit.knots == 1.0)[0][0])
        assert kl_fit.values[k] == 0.0

    def test_kl_fit_converges(self, kl_fit):
        # the stationarity test ends the kl fit well before the cap
        assert kl_fit.stop_reason == "converged"
        assert kl_fit.iterations < fitting.MAX_ITERS
        assert kl_fit.stationarity <= fitting.STATIONARITY_TOL

    def test_tv_squared_not_representable(self, kl_fit):
        fit = fit_f_divergence(catalog("tv_squared"), seed=0)
        assert not fit.passed
        assert fit.residual >= 100 * kl_fit.residual

    def test_zero_divergence(self):
        class Zero:
            label = "zero"
            n = 2

            def evaluate_batch(self, P, Q):
                return np.zeros(np.atleast_2d(P).shape[0])

        fit = fit_f_divergence(Zero(), sample_pairs=500, knots=101, seed=0)
        assert fit.residual <= 1e-12
        assert np.max(np.abs(fit.values)) <= 1e-9

    def test_determinism(self):
        a = fit_f_divergence(catalog("tv"), sample_pairs=800, knots=301, seed=5)
        b = fit_f_divergence(catalog("tv"), sample_pairs=800, knots=301, seed=5)
        assert np.array_equal(a.values, b.values)
        assert a.residual == b.residual


class TestFitBregman:
    def test_brier_residual_small(self, brier_fit):
        assert brier_fit.residual <= 1e-6
        assert brier_fit.passed

    def test_brier_recovers_quadratic_up_to_affine(self, brier_fit):
        # project the affine part out before comparing with x^2+(1-x)^2; skip
        # the edge knots that sit outside the sampled pair range
        x = brier_fit.knots
        got = brier_fit.values
        want = x ** 2 + (1 - x) ** 2
        inner = (x >= 0.08) & (x <= 0.92)
        X = np.column_stack([np.ones_like(x), x])[inner]
        r = (want - got)[inner]
        resid = r - X @ np.linalg.lstsq(X, r, rcond=None)[0]
        assert np.max(np.abs(resid)) <= 1e-4

    def test_tv_not_bregman(self, brier_fit):
        fit = fit_bregman_binary(catalog("tv"), seed=0)
        assert not fit.passed
        assert fit.residual >= 100 * brier_fit.residual

    def test_kl_is_bregman(self):
        fit = fit_bregman_binary(catalog("kl"), seed=0)
        assert fit.passed

    def test_zero_divergence(self):
        class Zero:
            label = "zero"
            n = 2

            def evaluate_batch(self, P, Q):
                return np.zeros(np.atleast_2d(P).shape[0])

        fit = fit_bregman_binary(Zero(), sample_pairs=500, knots=101, seed=0)
        assert fit.residual <= 1e-12

    def test_affine_shift_of_target_invisible(self):
        # adding an affine function to the generator leaves the divergence
        # unchanged, so the fit cannot distinguish the two
        a = fit_bregman_binary(catalog("brier"), sample_pairs=1000, knots=201, seed=2)
        shifted = catalog("brier")

        class Shifted:
            label = "brier+affine"
            n = 2

            def evaluate_batch(self, P, Q):
                return shifted.evaluate_batch(P, Q)

        b = fit_bregman_binary(Shifted(), sample_pairs=1000, knots=201, seed=2)
        assert a.residual == pytest.approx(b.residual, abs=1e-15)

    def test_iterations_ignore_rounding_of_target(self):
        # scaling the fit target by 1 +- 1 ulp must not move the stop
        brier = catalog("brier")

        class Scaled:
            label = "brier*c"
            n = 2

            def __init__(self, c):
                self.c = c

            def evaluate_batch(self, P, Q):
                return self.c * brier.evaluate_batch(P, Q)

        probe = fitting.probe("breg", seed=42)
        iterations = []
        for scale in (1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)):
            fit = probe.fit(Scaled(scale))
            iterations.append((fit.iterations, fit.stop_reason))
        assert iterations == [iterations[0]] * 3
        assert iterations[0][1] == "converged"


class TestFitOutputs:
    def test_csv_and_summary(self, tmp_path, capsys):
        csv_path = tmp_path / "fit.csv"
        json_path = tmp_path / "fit.json"
        assert cli.main(["fit", "fdiv", "--divergence", "tv", "--pairs", "400",
                         "--knots", "101", "--seed", "0", "--out", str(csv_path),
                         "--summary-out", str(json_path)]) == 0
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert rows.shape == (101, 2)
        doc = json.loads(json_path.read_text())
        assert set(doc) == {"residual", "passed", "threshold", "rms_target",
                            "iterations", "stop_reason", "stationarity"}
        assert doc["threshold"] == pytest.approx(1e-5 * doc["rms_target"])

    def test_stop_reason(self):
        capped = fit_f_divergence(catalog("tv"), sample_pairs=400, knots=101,
                                  seed=0, iters=5)
        assert (capped.iterations, capped.stop_reason) == (5, "max_iters")
        assert capped.summary()["stop_reason"] == "max_iters"
        assert capped.summary()["stationarity"] == capped.stationarity > 0

        class Zero:
            label = "zero"
            n = 2

            def evaluate_batch(self, P, Q):
                return np.zeros(np.atleast_2d(P).shape[0])

        flat = fit_bregman_binary(Zero(), sample_pairs=500, knots=101, seed=0)
        assert (flat.iterations, flat.stop_reason) == (1, "converged")
        assert flat.stationarity == 0.0


def kl_residual(d, grid):
    """Max |d - kl| over every pair of `grid` interior binary points: the
    residual of the identity linking a binary Bregman generator with the
    f-divergence generator x log x, as q4 takes it."""
    x = interior_binary_points(grid)
    return float(np.max(np.abs(d.evaluate_binary_pairs(x)
                               - catalog("kl").evaluate_binary_pairs(x))))


class TestBregmanFResidual:
    def test_kl_identity_holds(self):
        negent = DivergenceSpec("bregman", "negative_entropy", G=negative_entropy(),
                                n=2)
        assert kl_residual(negent, 200) <= 1e-9

    def test_brier_generator_with_kl_f_fails(self):
        assert kl_residual(catalog("brier"), 200) > 0.01

    def test_euclidean_generator_matches_its_own_form(self):
        # on binary rows the squared norm gives 2(p-q)^2, brier's value, which
        # is not kl: the identity residual must stay large
        assert kl_residual(catalog("euclidean"), 60) > 0.01


BLAS_PROBE = """
import json
from divergence_lab.checkers import check_dpi
from divergence_lab.divergences import catalog
from divergence_lab.fitting import fit_bregman_binary, fit_f_divergence
kl = catalog("kl")
print(json.dumps({"f": fit_f_divergence(kl, iters=0).summary(),
                  "bregman": fit_bregman_binary(kl, iters=0).summary(),
                  "dpi": check_dpi(kl, 3, random_trials=20_000).to_json_dict()}))
"""


def test_reports_do_not_depend_on_blas_threads():
    # the golden report must not move with the BLAS thread count, so the warm
    # start and the scans must not use thread-dependent reductions
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


SCIPY_FREE_PROBE = """
import sys
import numpy as np
import divergence_lab
from divergence_lab.checkers import (check_decomposable_binary, check_dpi,
                                     check_sufficiency)
from divergence_lab.divergences import DivergenceSpec, catalog, negative_entropy
from divergence_lab.families import (bregman_from_symmetric_g,
                                     h_generator_from_spec, kl_type_from_h,
                                     random_symmetric_convex_g)
from divergence_lab.fitting import fit_bregman_binary
ramp = kl_type_from_h(h_generator_from_spec("name:ramp"))
breg = bregman_from_symmetric_g(random_symmetric_convex_g(np.random.default_rng(3)))
kl_table = kl_type_from_h(h_generator_from_spec("name:kl"))
check_dpi(ramp, n=2, grid=10)
check_sufficiency(breg, 2)
check_decomposable_binary(breg)
kl_table.evaluate_binary_pairs(np.linspace(0.1, 0.9, 5))
kl_table.evaluate([0.3, 0.7], [0.6, 0.4])
negent = DivergenceSpec("bregman", "negative_entropy", G=negative_entropy(), n=2)
negent.evaluate_binary_pairs(np.linspace(0.1, 0.9, 5))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
assert "numpy.ma" not in sys.modules
print(fit_bregman_binary(catalog("kl"), iters=0).stop_reason)
"""


def test_only_fits_load_scipy():
    # the package, its tables, samplers, checkers and the identity residual
    # run on numpy alone, without numpy.ma; scipy is imported by the first fit
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_PROBE],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "max_iters"
