import json
import math

import numpy as np
import pytest

from divergence_lab.divergences import (CATALOG_NAMES, DivergenceError,
                                        DivergenceSpec,
                                        MultivariateConvexFunction,
                                        ScalarFunction, catalog, from_json_dict,
                                        negative_entropy, resolve)

KL_HALF_VS_QUARTER = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)


def fdiv(name):
    """An f-divergence spec built from the generator of a catalog entry."""
    return DivergenceSpec("f_divergence", name, f=catalog(name).f)


def kl_type(f):
    return DivergenceSpec("kl_type", "kl_type", f=f)


def bregman(G):
    return DivergenceSpec("bregman", "bregman", G=G)


def composed(base, k):
    return DivergenceSpec("composed", "composed", base=base, outer=k)


class TestFDivergence:
    def test_tv_binary_value(self):
        # sum q |p/q - 1| at P=(0.3,0.7), Q=(0.5,0.5) is |0.3-0.5|+|0.7-0.5|
        got = fdiv("tv").evaluate([0.3, 0.7], [0.5, 0.5])
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_zero_at_equal_arguments(self):
        for name in ("kl", "tv", "hellinger", "chi2"):
            got = catalog(name).evaluate([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
            assert abs(got) <= 1e-12

    def test_kl_closed_form(self):
        got = fdiv("kl").evaluate([0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-12)
        assert got == pytest.approx(0.14384, abs=5e-6)

    def test_zero_zero_coordinate_contributes_nothing(self):
        got = fdiv("kl").evaluate([0.5, 0.5, 0.0], [0.25, 0.75, 0.0])
        assert got == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-12)

    def test_escaping_mass_kl_infinite(self):
        assert fdiv("kl").evaluate([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_escaping_mass_tv_finite(self):
        # lim |x-1|/x = 1, so the q=0 term contributes p_i
        got = fdiv("tv").evaluate([0.5, 0.5], [1.0, 0.0])
        assert got == pytest.approx(0.5 + 0.5, abs=1e-12)

    def test_escaped_rows_do_not_make_nan_elsewhere(self):
        # a batch with escaped mass must not compute 0 * inf on its other rows
        with np.errstate(invalid="raise"):
            got = fdiv("chi2").evaluate_batch([[0.5, 0.5], [0.3, 0.7]],
                                              [[1.0, 0.0], [0.5, 0.5]])
        assert got[0] == np.inf
        assert got[1] == pytest.approx(0.04 / 0.5 + 0.04 / 0.5, abs=1e-12)

    def test_chi2_value(self):
        got = fdiv("chi2").evaluate([0.3, 0.7], [0.5, 0.5])
        assert got == pytest.approx(0.04 / 0.5 + 0.04 / 0.5, abs=1e-12)

    def test_hellinger_value(self):
        p, q = np.array([0.3, 0.7]), np.array([0.5, 0.5])
        expect = float(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
        got = fdiv("hellinger").evaluate(p, q)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_generator_precondition_rejected(self):
        concave = ScalarFunction(lambda x: -np.square(x - 1.0))
        with pytest.raises(DivergenceError):
            DivergenceSpec("f_divergence", "bad", f=concave)
        shifted = ScalarFunction(lambda x: np.square(x - 1.0) + 0.5)
        with pytest.raises(DivergenceError):
            DivergenceSpec("f_divergence", "bad", f=shifted)


class TestKLType:
    def test_neglog_gives_kl(self):
        f = ScalarFunction(lambda x: -np.log(x), deriv=lambda x: -1.0 / x)
        got = kl_type(f).evaluate([0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-12)

    def test_zero_at_equal(self):
        f = ScalarFunction(lambda x: -np.log(x))
        assert kl_type(f).evaluate([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_quadratic_generator(self):
        f = ScalarFunction(lambda x: 0.5 * np.square(x) - x)
        got = kl_type(f).evaluate([0.3, 0.7], [0.5, 0.5])
        assert got == pytest.approx(0.5 * 0.2 ** 2, abs=1e-12)

    def test_zero_mass_term_dropped(self):
        f = ScalarFunction(lambda x: -np.log(x))
        got = kl_type(f).evaluate([0.0, 0.5, 0.5], [0.0, 0.25, 0.75])
        assert got == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-12)


class TestBregman:
    def test_brier_value(self):
        got = bregman(catalog("brier").G).evaluate([0.3, 0.7], [0.5, 0.5])
        assert got == pytest.approx(2 * 0.2 ** 2, abs=1e-12)

    def test_zero_at_equal(self):
        got = bregman(catalog("euclidean").G).evaluate([0.2, 0.3, 0.5],
                                                  [0.2, 0.3, 0.5])
        assert abs(got) <= 1e-15

    def test_negative_entropy_matches_kl(self):
        rng = np.random.default_rng(11)
        G = negative_entropy()
        kl = catalog("kl")
        for _ in range(200):
            p = rng.exponential(size=4)
            p /= p.sum()
            q = rng.exponential(size=4)
            q /= q.sum()
            assert bregman(G).evaluate(p, q) == pytest.approx(
                kl.evaluate(p, q), abs=1e-10)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=3)
        base = negative_entropy()
        shifted = MultivariateConvexFunction(
            value=lambda P: base.value(P) + P @ a + 1.7,
            grad=lambda Q: base.gradient(Q) + a)
        for _ in range(50):
            p = rng.exponential(size=3)
            p /= p.sum()
            q = rng.exponential(size=3)
            q /= q.sum()
            assert bregman(base).evaluate(p, q) == pytest.approx(
                bregman(shifted).evaluate(p, q), abs=1e-10)

    def test_gradient_shift_invariance(self):
        # adding c*(1,...,1) to the gradient cannot change the value because
        # the argument difference sums to zero
        base = negative_entropy()
        bumped = MultivariateConvexFunction(
            value=base.value, grad=lambda Q: base.gradient(Q) + 7.3)
        p, q = [0.2, 0.3, 0.5], [0.4, 0.4, 0.2]
        assert bregman(base).evaluate(p, q) == pytest.approx(
            bregman(bumped).evaluate(p, q), abs=1e-12)

    def test_boundary_q_divergent_for_entropy(self):
        got = bregman(negative_entropy()).evaluate([0.5, 0.5], [1.0, 0.0])
        assert got == np.inf

    def test_boundary_q_smoothing_converges(self):
        # P also puts no mass where Q vanishes, so the limit is finite
        got = bregman(negative_entropy()).evaluate([0.0, 1.0], [0.0, 1.0])
        assert abs(got) <= 1e-8

    def test_boundary_p_fine_with_interior_q(self):
        got = bregman(negative_entropy()).evaluate([0.0, 1.0], [0.5, 0.5])
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_nonneg_on_random_pairs(self):
        rng = np.random.default_rng(19)
        for name in ("brier", "euclidean"):
            d = catalog(name)
            n = 2 if name == "brier" else 3
            P = rng.exponential(size=(500, n))
            P /= P.sum(axis=1, keepdims=True)
            Q = rng.exponential(size=(500, n))
            Q /= Q.sum(axis=1, keepdims=True)
            assert np.min(d.evaluate_batch(P, Q)) >= -1e-10


class TestGradient:
    def test_analytic_squared_norm(self):
        g = catalog("euclidean").G.gradient([0.5, 0.5])
        assert np.allclose(g, [1.0, 1.0])

    def test_entropy_gradient(self):
        g = negative_entropy().gradient([0.25, 0.75])
        assert np.allclose(g, [math.log(0.25) + 1, math.log(0.75) + 1])

    def test_finite_difference_agrees_with_analytic(self):
        numeric = MultivariateConvexFunction(value=lambda P: (P * P).sum(axis=-1))
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = rng.uniform(0.05, 1.0, size=3)
            q /= q.sum()
            assert np.allclose(numeric.gradient(q),
                               catalog("euclidean").G.gradient(q), atol=1e-6)

    def test_boundary_stencil_error(self):
        numeric = MultivariateConvexFunction(value=lambda P: (P * P).sum(axis=-1))
        with pytest.raises(DivergenceError):
            numeric.gradient([1e-7, 1.0 - 1e-7])


class TestComposed:
    def test_square_of_tv(self):
        k = ScalarFunction(lambda x: np.square(x))
        got = composed(catalog("tv"), k).evaluate([0.3, 0.7], [0.5, 0.5])
        assert got == pytest.approx(0.16, abs=1e-12)

    def test_zero_at_equal(self):
        k = ScalarFunction(lambda x: np.square(x))
        assert composed(catalog("tv"), k).evaluate([0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_tv_squared_binary_form(self):
        d = catalog("tv_squared")
        rng = np.random.default_rng(8)
        p = rng.uniform(0.01, 0.99, 100)
        q = rng.uniform(0.01, 0.99, 100)
        got = d.evaluate_batch(np.column_stack([p, 1 - p]),
                               np.column_stack([q, 1 - q]))
        assert np.allclose(got, 4 * (p - q) ** 2, atol=1e-12)

    def test_outer_must_be_nondecreasing_with_zero_at_zero(self):
        bad = ScalarFunction(lambda x: -np.asarray(x, dtype=float))
        with pytest.raises(DivergenceError):
            DivergenceSpec("composed", "bad", base=catalog("tv"), outer=bad)


class TestCatalogAndSerialization:
    def test_catalog_names(self):
        for name in CATALOG_NAMES:
            assert catalog(name).label == name

    def test_unknown_name(self):
        with pytest.raises(DivergenceError):
            catalog("renyi")

    def test_fixed_alphabet_enforced(self):
        with pytest.raises(DivergenceError):
            catalog("brier").evaluate([0.2, 0.3, 0.5], [0.3, 0.3, 0.4])

    def test_round_trip(self, tmp_path):
        for name in CATALOG_NAMES:
            d = catalog(name)
            doc = d.to_json_dict()
            d2 = from_json_dict(json.loads(json.dumps(doc)))
            assert d2.family == d.family
            p, q = [0.3, 0.7], [0.6, 0.4]
            if d.n not in (None, 2):
                continue
            assert d2.evaluate(p, q) == pytest.approx(d.evaluate(p, q), abs=1e-12)

    def test_resolve_path(self, tmp_path):
        path = tmp_path / "spec.json"
        catalog("tv_squared").save(path)
        d = resolve(str(path))
        assert d.label == "tv_squared"
        assert d.evaluate([0.3, 0.7], [0.5, 0.5]) == pytest.approx(0.16, abs=1e-12)

    def test_resolve_unknown(self):
        with pytest.raises(DivergenceError):
            resolve("no_such_thing")


def test_nonnegativity_over_random_interior_pairs():
    rng = np.random.default_rng(123)
    specs = [catalog(n) for n in ("kl", "tv", "hellinger", "chi2", "tv_squared")]
    m = 10_000
    P = rng.exponential(size=(m, 3))
    P /= P.sum(axis=1, keepdims=True)
    Q = rng.exponential(size=(m, 3))
    Q /= Q.sum(axis=1, keepdims=True)
    for d in specs:
        vals = d.evaluate_batch(P, Q)
        assert np.min(vals) >= -1e-10
        same = d.evaluate_batch(P, P)
        assert np.max(np.abs(same)) <= 1e-12


def test_f_divergences_decompose_coordinatewise():
    # the per-coordinate terms sum to the total and order cannot matter
    d = catalog("kl")
    rng = np.random.default_rng(77)
    p = rng.exponential(size=5)
    p /= p.sum()
    q = rng.exponential(size=5)
    q /= q.sum()
    total = d.evaluate(p, q)
    terms = [qi * (pi / qi) * math.log(pi / qi) for pi, qi in zip(p, q)]
    assert total == pytest.approx(sum(terms), abs=1e-12)
    perm = rng.permutation(5)
    assert d.evaluate(p[perm], q[perm]) == pytest.approx(total, abs=1e-12)
