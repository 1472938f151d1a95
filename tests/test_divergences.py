import json
import math
import re
import warnings
from fractions import Fraction

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divergence_lab.divergences import (CATALOG_NAMES, DivergenceError,
                                        DivergenceSpec, ScalarFunction, catalog,
                                        check_convex_on_simplex,
                                        check_f_generator, check_outer,
                                        check_perspective,
                                        from_json_dict, negative_entropy, resolve)
from divergence_lab.families import (H_CATALOG, HGenerator,
                                     bregman_from_symmetric_g,
                                     check_symmetric_g2,
                                     h_generator_from_spec, kl_type_from_h,
                                     random_symmetric_convex_g)
from divergence_lab.simplex import binary_rows

KL_HALF_VS_QUARTER = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)


def fdiv(name):
    """An f-divergence spec built from the generator of a catalog entry."""
    return DivergenceSpec("f_divergence", name, f=catalog(name).f)


def with_perspective(name, perspective):
    """The generator of a catalog f-divergence with `perspective` declared
    in place of its own: None leaves the generic q f(p/q) kernel."""
    f = catalog(name).f
    return ScalarFunction(f._value, deriv=f._deriv, label=f.label,
                          perspective_limit=f.perspective_limit,
                          perspective=perspective)


@functools.cache
def without_perspective(name):
    return DivergenceSpec("f_divergence", name, f=with_perspective(name, None))


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
        # through kl's perspective and through the generic kernel, where the
        # term at (0, 0) is 0, never 0 * lim = 0 * inf
        for d in (fdiv("kl"), without_perspective("kl")):
            got = d.evaluate([0.5, 0.5, 0.0], [0.25, 0.75, 0.0])
            assert got == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-12)

    def test_escaping_mass_kl_infinite(self):
        assert fdiv("kl").evaluate([0.5, 0.5], [1.0, 0.0]) == np.inf
        assert without_perspective("kl").evaluate([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_escaping_mass_tv_finite(self):
        # lim |x-1|/x = 1, so the q=0 term contributes p_i
        got = fdiv("tv").evaluate([0.5, 0.5], [1.0, 0.0])
        assert got == pytest.approx(0.5 + 0.5, abs=1e-12)
        # the generic kernel's terms, added in coordinate order: q f(p/q)
        # where q > 0, p * 1 where q = 0 < p, and 0 at (0, 0)
        P = [[0.3, 0.7, 0.0], [0.6, 0.0, 0.4], [0.2, 0.3, 0.5]]
        Q = [[0.0, 0.6, 0.4], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        want = [(0.3 * 1.0 + 0.6 * abs(0.7 / 0.6 - 1.0)) + 0.4 * abs(0.0 / 0.4 - 1.0),
                (0.6 * 1.0 + 0.0) + 1.0 * abs(0.4 / 1.0 - 1.0),
                (0.2 * 1.0 + 0.3 * 1.0) + 1.0 * abs(0.5 / 1.0 - 1.0)]
        assert without_perspective("tv").evaluate_batch(P, Q).tolist() == want

    def test_escaped_rows_do_not_make_nan_elsewhere(self):
        # a batch with escaped mass must not compute 0 * inf on its other rows
        for d in (fdiv("chi2"), without_perspective("chi2")):
            with np.errstate(invalid="raise"):
                got = d.evaluate_batch([[0.5, 0.5], [0.3, 0.7]], [[1.0, 0.0], [0.5, 0.5]])
            assert got[0] == np.inf
            assert got[1] == pytest.approx(0.04 / 0.5 + 0.04 / 0.5, abs=1e-12)

    def test_subnormal_q_takes_the_perspective_limit(self):
        # p/q overflows at q = 5e-324.  tv and hellinger give the limit term
        # p * lim f(x)/x = 0.5 there, and kl and chi2 their declared
        # perspectives: kl the sum of p (log p - log q), chi2 +inf, the
        # correctly rounded value.  An f without a perspective whose limit
        # is +inf raises there rather than give a silent inf
        P, Q = [0.5, 0.5], [5e-324, 1.0 - 5e-324]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert catalog("tv").evaluate(P, Q) == 1.0
            assert catalog("hellinger").evaluate(P, Q) == pytest.approx(
                0.585786437626905, abs=1e-15)
            kl = math.fsum(p * (math.log(p) - math.log(q)) for p, q in zip(P, Q))
            assert kl == 371.5268887801307
            assert catalog("kl").evaluate(P, Q) == pytest.approx(kl, rel=1e-12)
            assert catalog("chi2").evaluate(P, Q) == np.inf
        with pytest.raises(DivergenceError, match="overflows"):
            without_perspective("kl").evaluate(P, Q)
        # tv's f without its perspective has the finite limit 1: the term at
        # the subnormal q is p * 1, and the other is q f(p/q) = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert without_perspective("tv").evaluate(P, Q) == 1.0

    def test_chi2_is_finite_where_d_over_q_overflows(self):
        # (p - q) / q overflows at q = 1e-310 while (p - q)^2 / q does not:
        # chi2 is the exact sum, correctly rounded.  At q = 0 < p it stays
        # +inf, also where (p - q)^2 underflows to 0
        P, Q = [0.125, 0.875], [1e-310, 1.0 - 1e-310]
        assert chi2_reference(P, Q) == 1.5625000000000048e+308
        assert catalog("chi2").evaluate(P, Q) == 1.5625000000000048e+308
        assert catalog("chi2").evaluate_batch(
            [[0.125, 0.875], [5e-324, 1.0 - 5e-324]],
            [[1e-310, 1.0 - 1e-310], [0.0, 1.0]]).tolist() == [1.5625000000000048e+308,
                                                              np.inf]

    def test_chi2_value(self):
        got = fdiv("chi2").evaluate([0.3, 0.7], [0.5, 0.5])
        assert got == pytest.approx(0.04 / 0.5 + 0.04 / 0.5, abs=1e-12)

    def test_hellinger_value(self):
        p, q = np.array([0.3, 0.7]), np.array([0.5, 0.5])
        expect = float(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
        got = fdiv("hellinger").evaluate(p, q)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_generator_precondition_rejected(self):
        concave = ScalarFunction(lambda x: -np.square(x - 1.0),
                                 perspective_limit=-np.inf)
        with pytest.raises(DivergenceError, match="midpoint convexity"):
            DivergenceSpec("f_divergence", "bad", f=concave)
        shifted = ScalarFunction(lambda x: np.square(x - 1.0) + 0.5,
                                 perspective_limit=np.inf)
        with pytest.raises(DivergenceError, match=r"f\(1\)"):
            DivergenceSpec("f_divergence", "bad", f=shifted)

    @pytest.mark.parametrize("family, given_f, validate, message", [
        ("f_divergence", True, True, "must declare perspective_limit"),
        ("f_divergence", True, False, "must declare perspective_limit"),
        ("f_divergence", False, True, "a spec of family 'f_divergence' needs f"),
        ("f_divergence", False, False, "a spec of family 'f_divergence' needs f"),
        ("bregman", False, True, "a spec of family 'bregman' needs G"),
        ("bregman", False, False, "a spec of family 'bregman' needs G"),
        ("composed", False, True, "a spec of family 'composed' needs base and outer"),
        ("composed", False, False, "a spec of family 'composed' needs base and outer"),
        ("kl_type", False, True, "a spec of family 'kl_type' needs f"),
        ("kl_type", False, False, "a spec of family 'kl_type' needs f"),
    ], ids=["True", "False", "f_divergence-no-f-True", "f_divergence-no-f-False",
            "bregman-no-G-True", "bregman-no-G-False", "composed-no-base-True",
            "composed-no-base-False", "kl_type-no-f-True", "kl_type-no-f-False"])
    def test_perspective_limit_required(self, family, given_f, validate, message):
        # lim f(x)/x is declared, never estimated from large arguments, so a
        # generator without it is refused whether or not the spec is validated;
        # so is a spec without the generator its family reads, which raised
        # AttributeError or TypeError, or for kl_type built and then failed at
        # its first evaluate
        f = ScalarFunction(lambda x: np.asarray(x, dtype=float) - 1.0) if given_f else None
        with pytest.raises(DivergenceError, match=message):
            DivergenceSpec(family, "undeclared", f=f, validate=validate)


class TestKLType:
    def test_neglog_gives_kl(self):
        f = ScalarFunction(lambda x: -np.log(x), deriv=lambda x: -1.0 / x)
        got = kl_type(f).evaluate([0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx(KL_HALF_VS_QUARTER, abs=1e-12)

    def test_zero_at_equal(self):
        f = ScalarFunction(lambda x: -np.log(x))
        assert kl_type(f).evaluate([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_deriv_without_derivative_raises(self):
        f = ScalarFunction(lambda x: -np.log(x), label="-log(x)")
        with pytest.raises(DivergenceError, match="no derivative"):
            f.deriv(0.5)

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
        shifted = ScalarFunction(lambda P: base(P) + P @ a + 1.7,
                                 deriv=lambda Q: base.deriv(Q) + a)
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
        bumped = ScalarFunction(base, deriv=lambda Q: base.deriv(Q) + 7.3)
        p, q = [0.2, 0.3, 0.5], [0.4, 0.4, 0.2]
        assert bregman(base).evaluate(p, q) == pytest.approx(
            bregman(bumped).evaluate(p, q), abs=1e-12)

    def test_boundary_q_divergent_for_entropy(self):
        got = bregman(negative_entropy()).evaluate([0.5, 0.5], [1.0, 0.0])
        assert got == np.inf

    def test_boundary_q_equal_p_exact_zero(self):
        # p_i = q_i = 0 adds nothing, although the gradient there is -inf
        got = bregman(negative_entropy()).evaluate([0.0, 1.0], [0.0, 1.0])
        assert got == 0.0

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


def _face_rows(n, m, seed):
    """m random rows of the n-simplex, most with one or more zero coordinates."""
    rng = np.random.default_rng(seed)
    X = rng.exponential(size=(m, n))
    X[rng.uniform(size=(m, n)) < 0.4] = 0.0
    X[np.arange(m), rng.integers(n, size=m)] += 0.5  # no all-zero row
    return X / X.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bregman_exact_on_faces(n):
    P, Q = _face_rows(n, 400, seed=n), _face_rows(n, 400, seed=100 + n)
    assert np.any(P == 0) and np.any(Q == 0)
    # brier's binary form 2 (p - q)^2 is the squared distance of the rows
    norm2 = np.array([math.fsum(r) for r in (P - Q) ** 2])
    for name in ("brier", "euclidean") if n == 2 else ("euclidean",):
        got = catalog(name).evaluate_batch(P, Q)
        assert np.all(np.abs(got - norm2) <= 1e-15 * (1 + norm2))
    got = bregman(negative_entropy()).evaluate_batch(P, Q)
    want = catalog("kl").evaluate_batch(P, Q)
    escaped = np.any((P > 0) & (Q == 0), axis=1)
    assert np.any(escaped) and not np.all(escaped)
    assert np.array_equal(np.isinf(got), escaped)
    assert np.all(got[escaped] == np.inf)
    assert np.allclose(got[~escaped], want[~escaped], rtol=1e-12, atol=1e-12)


class TestGradient:
    def test_analytic_squared_norm(self):
        g = catalog("euclidean").G.deriv([0.5, 0.5])
        assert np.allclose(g, [1.0, 1.0])

    def test_entropy_gradient(self):
        g = negative_entropy().deriv([0.25, 0.75])
        assert np.allclose(g, [math.log(0.25) + 1, math.log(0.75) + 1])

    def test_gradient_required(self):
        # like lim f(x)/x, the gradient is declared, so a Bregman generator
        # without one is refused whether or not the spec is validated
        G = ScalarFunction(lambda P: (P * P).sum(axis=-1))
        for validate in (True, False):
            with pytest.raises(DivergenceError, match="gradient"):
                DivergenceSpec("bregman", "undeclared", G=G, validate=validate)


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


# the spec document of each catalog entry, as `--divergence path.json` reads it
CATALOG_DOCS = {
    **{name: {"family": "f_divergence", "name": name}
       for name in ("kl", "tv", "hellinger", "chi2")},
    **{name: {"family": "bregman", "name": name} for name in ("brier", "euclidean")},
    "tv_squared": {"family": "composed", "name": "tv", "outer": "square"},
}


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
            doc = CATALOG_DOCS[name]
            d2 = from_json_dict(json.loads(json.dumps(doc)))
            assert d2.family == d.family
            p, q = [0.3, 0.7], [0.6, 0.4]
            if d.n not in (None, 2):
                continue
            assert d2.evaluate(p, q) == pytest.approx(d.evaluate(p, q), abs=1e-12)

    def test_resolve_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(CATALOG_DOCS["tv_squared"]))
        d = resolve(str(path))
        assert d.label == "tv_squared"
        assert d.evaluate([0.3, 0.7], [0.5, 0.5]) == pytest.approx(0.16, abs=1e-12)

    def test_resolve_unknown(self):
        with pytest.raises(DivergenceError):
            resolve("no_such_thing")

    @pytest.mark.parametrize("doc, why", [
        ([1, 2], "must be a JSON object, got list"),
        ("kl", "must be a JSON object, got str"),
        ({"family": "kl_type", "h": 5}, "'h' must be a string, got 5"),
        ({"name": ["kl"]}, "'name' must be a string"),
        ({"family": 2, "name": "kl"}, "'family' must be a string"),
        ({"family": "composed", "name": "tv", "outer": None}, "'outer' must be a string"),
        # fields outside a document's shape were dropped: the first two
        # evaluated kl and tv, the third kl_type[name:kl], the fourth kl
        ({"name": "kl", "outer": "square"},
         "a spec with 'outer' must have family 'composed'"),
        ({"family": "f_divergence", "name": "tv", "outer": "square"},
         "a spec with 'outer' must have family 'composed'"),
        ({"family": "kl_type", "h": "name:kl", "name": "tv"},
         "spec field 'name' is not accepted in a spec with 'h', whose fields are family, h"),
        ({"name": "kl", "extra": 1},
         "spec field 'extra' is not accepted in a spec with 'name', "
         "whose fields are family, name"),
    ])
    def test_malformed_document_rejected(self, tmp_path, doc, why):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DivergenceError, match=why):
            resolve(str(path))

    def test_only_the_square_outer_function(self):
        with pytest.raises(DivergenceError, match="unknown outer function 'identity'"):
            from_json_dict({"family": "composed", "name": "tv", "outer": "identity"})


@pytest.mark.parametrize("spec, n", [
    (lambda: catalog("brier"), 2),
    (lambda: catalog("euclidean"), 3),
    (lambda: DivergenceSpec("bregman", "negent", G=negative_entropy(), n=2), 2),
    (lambda: DivergenceSpec("bregman", "negent", G=negative_entropy(), n=5), 5),
    (lambda: DivergenceSpec("bregman", "negent", G=negative_entropy()), 3),
], ids=["brier", "euclidean", "negent-n2", "negent-n5", "negent-any"])
def test_bregman_spot_check_takes_the_spec_alphabet(monkeypatch, spec, n):
    # the spec owns the alphabet size; a generator carries none
    seen = []
    monkeypatch.setattr("divergence_lab.divergences.check_convex_on_simplex",
                        lambda G, n: seen.append(n))
    spec()
    assert seen == [n]


def nan_like(x):
    return np.full(np.shape(x), np.nan)


@pytest.mark.parametrize("check, name", [
    (lambda: check_f_generator(ScalarFunction(nan_like, label="nan")), "f 'nan'"),
    (lambda: check_outer(ScalarFunction(nan_like, label="nan")), "k 'nan'"),
    (lambda: check_convex_on_simplex(ScalarFunction(
        lambda P: nan_like(P[..., 0]), deriv=nan_like, label="nan"), 3), "G 'nan'"),
    (lambda: HGenerator(nan_like, label="nan").validate(), "h(nan)"),
    (lambda: check_symmetric_g2(ScalarFunction(nan_like, deriv=nan_like, label="nan")),
     "g2(nan)"),
], ids=["f", "outer", "bregman", "h", "g2"])
def test_generator_spot_checks_reject_nan(check, name):
    # NaN fails no `<` test: each spot-check rejects it by name
    with pytest.raises(DivergenceError, match=re.escape(f"{name} is not finite")):
        check()


def u_squared(x):
    return np.square(x - 0.5)


def x_log_x(limit):
    return ScalarFunction(lambda x: x * np.log(x), label="x*log(x)",
                          perspective_limit=limit)


def abs_x_minus_1(limit):
    return ScalarFunction(lambda x: np.abs(np.asarray(x) - 1.0), label="|x-1|",
                          perspective_limit=limit)


# each wrong declaration built a spec whose values were wrong or NaN: d_g2 = 0
# gave a binary data-processing "violation" with gap 0.348, d_g2 = NaN an
# inconclusive check with 600 failures, a zero gradient of sum p^2
# D((.2, .3, .5); (.6, .2, .2)) = -0.06, x log x declared with limit 0
# D((.5, .5); (0, 1)) = -0.347 (0.153 with limit 1), and tv's |x - 1|
# declared with limit 5 D((.5, .5); (1, 0)) = 3.0 where tv gives 1.0 (inf
# with limit inf).  A declared perspective without kl's p = 0 rule gave a
# NaN kl on every row with a zero coordinate, the naive chi2 (p - q)^2 / q
# NaN at (0, 0) and, with the p = 0 rule, at (5e-324, 0) where chi2 is +inf,
# and 2|p - q| twice tv
@pytest.mark.parametrize("build, message", [
    (lambda: bregman_from_symmetric_g(ScalarFunction(
        u_squared, deriv=np.zeros_like, label="u^2")),
     "G 'G[u^2]' does not match its declared gradient"),
    (lambda: bregman_from_symmetric_g(ScalarFunction(
        u_squared, deriv=lambda x: np.full_like(x, np.nan), label="u^2")),
     "the gradient of G 'G[u^2]' is not finite"),
    (lambda: DivergenceSpec("bregman", "zero-gradient", n=3, G=ScalarFunction(
        lambda P: (P * P).sum(axis=-1), deriv=np.zeros_like, label="p.p")),
     "G 'p.p' does not match its declared gradient"),
    (lambda: DivergenceSpec("f_divergence", "kl0", f=x_log_x(0.0)),
     "f 'x*log(x)' declares lim f(x)/x = 0, below its chord slope"),
    (lambda: DivergenceSpec("f_divergence", "kl1", f=x_log_x(1.0)),
     "f 'x*log(x)' declares lim f(x)/x = 1, below its chord slope"),
    (lambda: DivergenceSpec("f_divergence", "tv5", f=abs_x_minus_1(5.0)),
     "f '|x-1|' declares lim f(x)/x = 5, far above its chord slope 1 at x = 1e8"),
    (lambda: DivergenceSpec("f_divergence", "tv-inf", f=abs_x_minus_1(np.inf)),
     "f '|x-1|' declares lim f(x)/x = inf, but its chord slope has stopped rising"),
    (lambda: DivergenceSpec("f_divergence", "kl-no-p0", f=with_perspective(
        "kl", lambda P, Q: P * (np.log(P) - np.log(Q)))),
     "f 'x*log(x)' declares a perspective of nan at (p, q) = (0, 0), "
     "where q f(p/q) is 0"),
    (lambda: DivergenceSpec("f_divergence", "chi2-naive", f=with_perspective(
        "chi2", lambda P, Q: (P - Q) ** 2 / Q)),
     "f '(x-1)^2' declares a perspective of nan at (p, q) = (0, 0), "
     "where q f(p/q) is 0"),
    (lambda: DivergenceSpec("f_divergence", "chi2-naive-p0", f=with_perspective(
        "chi2", lambda P, Q: np.where(P > 0, (P - Q) ** 2 / Q, Q))),
     "f '(x-1)^2' declares a perspective of nan at (p, q) = (4.94e-324, 0), "
     "where q f(p/q) is inf"),
    (lambda: DivergenceSpec("f_divergence", "tv-double", f=with_perspective(
        "tv", lambda P, Q: 2.0 * np.abs(P - Q))),
     "f '|x-1|' declares a perspective of 9.88131e-324 at (p, q) = (0, 4.94e-324), "
     "where q f(p/q) is 4.94066e-324"),
], ids=["d_g2-zero", "d_g2-nan", "gradient-zero", "limit-0", "limit-1", "tv-limit-5",
        "tv-limit-inf", "kl-no-p0-rule", "chi2-naive", "chi2-naive-p0-rule",
        "tv-double"])
def test_wrong_declarations_rejected(build, message):
    with pytest.raises(DivergenceError, match=re.escape(message)):
        build()


def test_limit_checks_at_the_far_points():
    # exp(x - 1) - x overflows at x = 1e4: its slopes are still rising, not
    # an error, so only an infinite limit is right
    grows = ScalarFunction(lambda x: np.exp(np.asarray(x) - 1.0) - x, label="exp",
                           perspective_limit=np.inf)
    DivergenceSpec("f_divergence", "exp", f=grows)
    grows.perspective_limit = 3.0
    with pytest.raises(DivergenceError, match="below its chord slope inf"):
        DivergenceSpec("f_divergence", "exp", f=grows)
    # a limit within LIMIT_SLACK of the slopes passes; hellinger's f declared
    # with an infinite limit is out of reach: its slope still rises 2% from
    # 1e4 to 1e8, as a slowly unbounded f's would
    DivergenceSpec("f_divergence", "tv", f=abs_x_minus_1(1.005))
    hellinger = catalog("hellinger").f
    DivergenceSpec("f_divergence", "hellinger-inf", f=ScalarFunction(
        hellinger._value, label="hellinger", perspective_limit=np.inf))


def test_every_shipped_generator_passes_the_declaration_checks():
    for name in CATALOG_NAMES:
        catalog(name)
    for name in PERSPECTIVE_NAMES:
        f = catalog(name).f
        assert f.perspective is not None
        check_perspective(f)
    for name, (h, breaks) in H_CATALOG.items():
        kl_type_from_h(HGenerator(h, label=name, breakpoints=breaks),
                       validate=name != "decreasing")
    for seed in range(300):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            bregman_from_symmetric_g(random_symmetric_convex_g(rng))


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


# ---------------------------------------------------------------------------
# evaluate_binary_pairs against evaluate_batch on the explicit rows
# ---------------------------------------------------------------------------

KL_TYPE_NAMES = ("square", "ramp", "kl", "decreasing")
# beyond the catalog: negative entropy, whose face gradient is -inf, random
# symmetric Bregman generators, a composed spec over a base that is not tv,
# and the generic kernel: kl's x log x without its perspective, which raises
# at a subnormal q, and tv's |x - 1|, whose finite limit gives a value there
PAIR_SPECS = (CATALOG_NAMES + tuple(f"kl_type:{h}" for h in KL_TYPE_NAMES)
              + ("negative_entropy", "bregman:3", "bregman:11", "square(hellinger)",
                 "kl:no-perspective", "tv:no-perspective"))
# 0 and 1 put a row on a face; the smallest subnormal and a larger one probe
# the bottom of the double range, 1 - 2**-53 its top below 1
EDGE_COORDS = (0.0, 1.0, 5e-324, 1e-310, 1.0 - 2.0 ** -53)
coords = st.one_of(st.sampled_from(EDGE_COORDS), st.floats(0.0, 1.0))


@functools.cache
def pair_spec(name):
    if name.startswith("kl_type:"):
        gen = h_generator_from_spec("name:" + name.split(":")[1])
        return kl_type_from_h(gen, validate=False)
    if name.startswith("bregman:"):
        rng = np.random.default_rng(int(name.split(":")[1]))
        return bregman_from_symmetric_g(random_symmetric_convex_g(rng))
    if name == "negative_entropy":
        return DivergenceSpec("bregman", name, G=negative_entropy(), n=2)
    if name.endswith(":no-perspective"):
        return without_perspective(name.split(":")[0])
    if name == "square(hellinger)":
        return from_json_dict({"family": "composed", "name": "hellinger",
                               "outer": "square"})
    return catalog(name)


def pairs_by_rows(d, U):
    k = U.size
    rows = d.evaluate_batch(binary_rows(np.repeat(U, k)), binary_rows(np.tile(U, k)))
    return rows.reshape(k, k)


@pytest.mark.parametrize("name", PAIR_SPECS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(U=st.lists(coords, min_size=1, max_size=8))
def test_binary_pairs_match_rows(name, U):
    d = pair_spec(name)
    U = np.array(U)
    try:
        want = pairs_by_rows(d, U)
    except DivergenceError:
        # an f without a perspective whose limit is +inf raises where p / q
        # overflows at a subnormal q, and the pair path must raise there too
        for V in (U, np.stack([U, U[::-1]])):
            with pytest.raises(DivergenceError, match="overflows"):
                d.evaluate_binary_pairs(V)
        return
    got = d.evaluate_binary_pairs(U)
    got2 = d.evaluate_binary_pairs(np.stack([U, U[::-1]]))
    want2 = np.stack([want, pairs_by_rows(d, U[::-1])])
    assert got.shape == (U.size, U.size)
    assert got.tobytes() == want.tobytes()
    assert got2.shape == (2, U.size, U.size)
    assert got2.tobytes() == want2.tobytes()


# ---------------------------------------------------------------------------
# declared perspectives against the generic q f(p/q) kernel
# ---------------------------------------------------------------------------

PERSPECTIVE_NAMES = ("kl", "tv", "hellinger", "chi2")


def kl_reference(P, Q):
    """(math.fsum of p (log p - log q) over p > 0, fsum of the terms' sizes);
    +inf where some q = 0 < p."""
    if any(p > 0 and q == 0 for p, q in zip(P, Q)):
        return math.inf, math.inf
    terms = [p * (math.log(p) - math.log(q)) for p, q in zip(P, Q) if p > 0]
    return math.fsum(terms), math.fsum(map(abs, terms))


def chi2_reference(P, Q):
    """The exact sum of (p - q)^2 / q over q > 0, correctly rounded; +inf
    where some q = 0 < p or the sum exceeds the largest double."""
    if any(p > 0 and q == 0 for p, q in zip(P, Q)):
        return math.inf
    exact = sum((Fraction(p) - Fraction(q)) ** 2 / Fraction(q)
                for p, q in zip(P, Q) if q > 0)
    try:
        return float(exact)
    except OverflowError:
        return math.inf


PLAIN_PERSPECTIVES = {
    "kl": lambda P, Q: np.where(P > 0, P * (np.log(P) - np.log(Q)), 0.0),
    "chi2": lambda P, Q: np.where(P > 0, (P - Q) * ((P - Q) / Q), Q),
    "hellinger": lambda P, Q: np.square(np.sqrt(P) - np.sqrt(Q)),
    "tv": lambda P, Q: np.abs(P - Q),
}


@pytest.mark.parametrize("name", PERSPECTIVE_NAMES)
def test_catalog_perspectives_keep_the_bits_of_their_expressions(name):
    # the catalog computes its forms in place; the values are those of the
    # plain expressions, on the edges, on random rows and on broadcast pairs
    rng = np.random.default_rng(3)
    edges = np.array(EDGE_COORDS)
    cases = [np.meshgrid(edges, edges, indexing="ij"),
             (rng.uniform(size=(100, 4)), rng.uniform(size=(100, 4))),
             (rng.uniform(size=(30, 1, 2)), rng.uniform(size=(1, 30, 2)))]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for P, Q in cases:
            got = catalog(name).f.perspective(P, Q)
            assert got.tobytes() == PLAIN_PERSPECTIVES[name](P, Q).tobytes()


@pytest.mark.parametrize("name", PERSPECTIVE_NAMES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.integers(2, 5).flatmap(
    lambda n: st.tuples(*[st.lists(coords, min_size=n, max_size=n)] * 2)))
def test_perspective_matches_the_generic_kernel(name, rows):
    P, Q = (np.array(r) for r in rows)
    got = float(catalog(name).evaluate_batch(P, Q)[0])
    try:
        ref = float(without_perspective(name).evaluate_batch(P, Q)[0])
    except DivergenceError:
        # p/q overflows at a subnormal q, where the generic kernel does not
        # know kl's or chi2's value; tv's and hellinger's limits are finite
        assert name in ("kl", "chi2")
        if name == "kl":
            want, size = kl_reference(P, Q)
            assert got == want if math.isinf(want) else abs(got - want) <= 1e-12 * size
        else:
            want = chi2_reference(P, Q)
            assert got == want if math.isinf(want) else got == pytest.approx(
                want, rel=1e-12)
        return
    if np.isfinite(ref):
        assert abs(got - ref) <= 1e-12 * (P.sum() + Q.sum() + abs(ref))
    else:
        assert ref == np.inf and got == np.inf


def test_binary_pairs_need_binary_alphabet():
    d = DivergenceSpec("bregman", "ternary", G=negative_entropy(), n=3)
    with pytest.raises(DivergenceError, match="size 3"):
        d.evaluate_binary_pairs([0.2, 0.5])


# ---------------------------------------------------------------------------
# evaluate_batch on broadcast rows
# ---------------------------------------------------------------------------

BROADCAST_SPECS = {
    "kl": lambda n: catalog("kl"),
    "chi2": lambda n: catalog("chi2"),
    "euclidean": lambda n: catalog("euclidean"),
    "tv_squared": lambda n: catalog("tv_squared"),
    "negative_entropy": lambda n: DivergenceSpec("bregman", "negative_entropy",
                                                 G=negative_entropy(), n=n),
}


@pytest.mark.parametrize("name,n", [(name, n) for name in BROADCAST_SPECS
                                    for n in (3, 4)
                                    if (name, n) != ("negative_entropy", 4)])
def test_broadcast_rows_match_explicit_rows(name, n):
    d = BROADCAST_SPECS[name](n)
    rng = np.random.default_rng(n)
    P = rng.exponential(size=(5, n))
    P[0, 0] = 0.0  # a face row, so the masked and escaped terms take part
    P /= P.sum(axis=1, keepdims=True)
    Q = rng.exponential(size=(4, n))
    Q[1, -1] = 0.0
    Q /= Q.sum(axis=1, keepdims=True)
    got = d.evaluate_batch(P[:, None], Q[None, :])
    want = d.evaluate_batch(np.repeat(P, len(Q), axis=0),
                            np.tile(Q, (len(P), 1))).reshape(len(P), len(Q))
    assert got.shape == (5, 4)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("P,Q,match", [
    (np.full((3, 2), 0.5), np.full((3, 3), 1 / 3), "differ in size"),
    (np.full((3, 2), 0.5), np.full((4, 2), 0.5), "do not broadcast"),
    (np.full((2, 3, 2), 0.5), np.full((2, 2), 0.5), "do not broadcast"),
])
def test_rows_that_do_not_broadcast_are_rejected(P, Q, match):
    for name in ("kl", "euclidean", "tv_squared"):
        with pytest.raises(DivergenceError, match=match):
            catalog(name).evaluate_batch(P, Q)
