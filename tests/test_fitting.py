import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from divergence_lab import fitting
from divergence_lab.divergences import (MultivariateConvexFunction,
                                        ScalarFunction, catalog,
                                        negative_entropy)
from divergence_lab.fitting import (ConvexPiecewiseLinearFit, bregman_f_residual,
                                    fit_bregman_binary, fit_f_divergence,
                                    pav_nondecreasing)


def xlogx():
    return ScalarFunction(
        lambda x: np.where(np.asarray(x) > 0,
                           np.asarray(x) * np.log(np.clip(x, 1e-300, None)), 0.0),
        deriv=lambda x: np.log(x) + 1.0, label="x*log(x)")


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


@pytest.mark.parametrize("probe, knots", [(fit_f_divergence, 2001),
                                           (fit_bregman_binary, 801)])
def test_warm_start_solve_matches_dense(monkeypatch, probe, knots):
    # record the design handed to the warm start and every factorization it
    # makes, then re-solve each regularized system densely
    designs, factors = [], []
    warm_start, splu = fitting._warm_start, fitting.spla.splu

    def recording_warm_start(A, y, *args):
        designs.append((A, y))
        return warm_start(A, y, *args)

    def recording_splu(M, **kw):
        lu = splu(M, **kw)
        factors.append((M, lu))
        return lu

    monkeypatch.setattr(fitting, "_warm_start", recording_warm_start)
    monkeypatch.setattr(fitting.spla, "splu", recording_splu)
    probe(catalog("kl"), knots=knots, seed=0, iters=0)
    [(A, y)] = designs
    assert A.shape[1] == knots and len(factors) == 3
    Aty = A.T @ y
    for M, lu in factors:
        want = A @ scipy.linalg.solve(M.toarray(), Aty, assume_a="pos")
        got = A @ lu.solve(Aty)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


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

    def test_monotone_objective(self, kl_fit):
        h = kl_fit.objective_history
        assert np.all(np.diff(h) <= 0.0)

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


class TestFitOutputs:
    def test_csv_and_summary(self, tmp_path):
        fit = fit_f_divergence(catalog("tv"), sample_pairs=400, knots=101, seed=0)
        csv_path = tmp_path / "fit.csv"
        json_path = tmp_path / "fit.json"
        fit.write_csv(csv_path)
        fit.write_summary(json_path)
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert rows.shape == (101, 2)
        doc = json.loads(json_path.read_text())
        assert set(doc) == {"residual", "passed", "threshold", "rms_target",
                            "iterations", "stop_reason"}
        assert doc["threshold"] == pytest.approx(1e-5 * doc["rms_target"])

    def test_stop_reason(self):
        capped = fit_f_divergence(catalog("tv"), sample_pairs=400, knots=101,
                                  seed=0, iters=5)
        assert (capped.iterations, capped.stop_reason) == (5, "max_iters")
        assert capped.summary()["stop_reason"] == "max_iters"

        class Zero:
            label = "zero"
            n = 2

            def evaluate_batch(self, P, Q):
                return np.zeros(np.atleast_2d(P).shape[0])

        flat = fit_bregman_binary(Zero(), sample_pairs=500, knots=101, seed=0)
        assert flat.stop_reason == "stall"
        assert flat.iterations == fitting.STALL_WINDOW


class TestBregmanFResidual:
    def test_kl_identity_holds(self):
        resid = bregman_f_residual(negative_entropy(2), xlogx(), grid=200)
        assert resid <= 1e-9

    def test_brier_generator_with_kl_f_fails(self):
        resid = bregman_f_residual(catalog("brier").G, xlogx(), grid=200)
        assert resid > 0.01

    def test_residual_scales_linearly(self):
        G = negative_entropy(2)
        a = 3.7
        G_scaled = MultivariateConvexFunction(
            value=lambda P: a * G.value(P), grad=lambda Q: a * G.gradient(Q), n=2)
        f = xlogx()
        f_scaled = ScalarFunction(lambda x: a * np.asarray(f(x)))
        base = bregman_f_residual(catalog("brier").G, f, grid=60)
        brier_scaled = MultivariateConvexFunction(
            value=lambda P: a * catalog("brier").G.value(P),
            grad=lambda Q: a * catalog("brier").G.gradient(Q), n=2)
        scaled = bregman_f_residual(brier_scaled, f_scaled, grid=60)
        assert scaled == pytest.approx(a * base, rel=1e-9)

    def test_euclidean_generator_matches_its_own_form(self):
        # h(p) = p^2 + (1-p)^2 gives the Bregman value 2(p-q)^2; compare
        # against the f-divergence with f(x) = (x-1)^2 evaluated at q=1/2 rows
        # only through the full-identity residual, which must stay large
        resid = bregman_f_residual(catalog("euclidean").G, xlogx(), grid=60)
        assert resid > 0.01


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
