import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divergence_lab import cli
from divergence_lab.divergences import catalog
from divergence_lab.families import (DEFAULT_SAMPLES, QUAD_ABS_TOL,
                                     QUAD_DOMAIN_LO, QUAD_TOL, FamilyError,
                                     HGenerator, SymmetricConvexG,
                                     bregman_from_symmetric_g, build_G_from_h,
                                     build_f_from_h, family_table,
                                     h_generator_from_spec, kl_type_from_h,
                                     random_symmetric_convex_g)
from divergence_lab.simplex import binary_rows


def gen(name):
    return h_generator_from_spec(f"name:{name}")


class TestHGenerator:
    def test_valid_generators_pass(self):
        for name in ("square", "linear", "kl", "ramp", "zero"):
            gen(name).validate()

    def test_decreasing_rejected(self):
        with pytest.raises(FamilyError):
            gen("decreasing").validate()

    def test_negative_rejected(self):
        bad = HGenerator(lambda x: np.asarray(x) - 0.25, label="x-1/4")
        with pytest.raises(FamilyError):
            bad.validate()

    def test_flat_segments_allowed(self):
        gen("ramp").validate()
        gen("zero").validate()


class TestBuildG:
    def test_ratio_h_gives_constant(self):
        # (x-1)/x * x/(1-x) = -1 on either side of the reflection
        G = build_G_from_h(gen("kl"))
        x = np.linspace(0.01, 0.99, 101)
        assert np.allclose(np.asarray(G(x)), -1.0, atol=1e-12)

    def test_square_h(self):
        G = build_G_from_h(gen("square"))
        x = np.linspace(0.01, 0.5, 50)
        assert np.allclose(np.asarray(G(x)), x * (x - 1), atol=1e-12)

    def test_zero_h(self):
        G = build_G_from_h(gen("zero"))
        assert np.allclose(np.asarray(G(np.linspace(0.01, 0.99, 11))), 0.0)

    def test_reflection(self):
        G = build_G_from_h(gen("linear"))
        x = np.linspace(0.01, 0.49, 37)
        assert np.allclose(np.asarray(G(1 - x)), np.asarray(G(x)), atol=1e-12)

    def test_nonpositive_everywhere(self):
        for name in ("square", "linear", "kl", "ramp"):
            G = build_G_from_h(gen(name))
            assert np.max(np.asarray(G(np.linspace(1e-6, 1 - 1e-6, 999)))) <= 1e-12

    def test_invalid_h_raises_without_override(self):
        # G is built for any h; h is checked where f is built from it
        G = build_G_from_h(gen("decreasing"))
        assert np.asarray(G(0.25)) == pytest.approx(-0.75, abs=1e-15)
        for build in (build_f_from_h, kl_type_from_h, family_table):
            with pytest.raises(FamilyError):
                build(gen("decreasing"))
            build(gen("decreasing"), validate=False)

    def test_monotonicity_of_G_times_ratio(self):
        # G(x) x/(1-x) = -h(x) must be nonincreasing and nonpositive
        for name in ("square", "linear", "kl", "ramp"):
            G = build_G_from_h(gen(name))
            x = np.linspace(0.01, 0.5, 200)
            vals = np.asarray(G(x)) * x / (1 - x)
            assert np.max(vals) <= 1e-12
            assert np.max(np.diff(vals)) <= 1e-12


@pytest.mark.parametrize("build, want", [
    (build_G_from_h, 0), (build_f_from_h, 1), (kl_type_from_h, 1),
    (family_table, 1),
    (functools.partial(build_f_from_h, validate=False), 0),
    (functools.partial(family_table, validate=False), 0),
])
def test_h_is_checked_once(monkeypatch, build, want):
    calls = []
    check = HGenerator.validate
    monkeypatch.setattr(HGenerator, "validate",
                        lambda self: calls.append(check(self)))
    build(gen("square"))
    assert len(calls) == want


class TestBuildF:
    def test_square_matches_closed_form(self):
        f = build_f_from_h(gen("square"))
        x = np.linspace(0.01, 0.99, 1543)
        # anchor f(1/2)=0 makes the integration constant 3/8
        assert np.max(np.abs(np.asarray(f(x)) - (0.5 * x ** 2 - x + 0.375))) <= 1e-8

    def test_ratio_matches_neglog(self):
        f = build_f_from_h(gen("kl"))
        x = np.linspace(0.01, 0.99, 1543)
        assert np.max(np.abs(np.asarray(f(x)) - (-np.log(x) - math.log(2)))) <= 1e-8

    def test_linear_h_piecewise_form(self):
        # below 1/2: f' = 1 - 1/x; above: f' = -1 (the reflected branch)
        f = build_f_from_h(gen("linear"))
        lo = np.linspace(0.01, 0.5, 200)
        expect_lo = lo - np.log(lo) - (0.5 - np.log(0.5))
        assert np.max(np.abs(np.asarray(f(lo)) - expect_lo)) <= 1e-8
        hi = np.linspace(0.5, 0.99, 200)
        assert np.max(np.abs(np.asarray(f(hi)) - (0.5 - hi))) <= 1e-8

    def test_zero_h_constant_f(self):
        f = build_f_from_h(gen("zero"))
        assert np.max(np.abs(np.asarray(f(np.linspace(0.01, 0.99, 99))))) <= 1e-12

    def test_anchor(self):
        for name in ("square", "linear", "kl", "ramp"):
            f = build_f_from_h(gen(name))
            assert abs(float(f(0.5))) <= 1e-12

    def test_derivative_is_exact_ratio(self):
        g = gen("square")
        G = build_G_from_h(g)
        f = build_f_from_h(g)
        x = np.linspace(0.01, 0.99, 101)
        assert np.allclose(f.deriv(x), np.asarray(G(x)) / x, atol=0)

    def test_gaps_match_adaptive_quad(self):
        # reference: scipy's adaptive quad at the tolerances the table uses
        from scipy.integrate import quad
        for name in ("square", "linear", "kl", "ramp"):
            g = gen(name)
            f = build_f_from_h(g)
            fp = lambda t: float(f.deriv(t))
            k, v = f.knots, f.knot_values
            for i in range(0, len(k) - 1, 97):
                want, _ = quad(fp, k[i], k[i + 1], epsabs=QUAD_ABS_TOL,
                               epsrel=QUAD_TOL, limit=200)
                assert abs((v[i + 1] - v[i]) - want) <= 1e-12 * max(1.0, abs(v[i]))

    def test_h_calls_bounded(self):
        # one vectorized h call per refinement level, not one per quad node
        calls = [0]

        def h(x):
            calls[0] += 1
            return np.square(x)

        build_f_from_h(HGenerator(h, label="counted"))
        assert calls[0] <= 40

    def test_undeclared_kink_refined(self):
        # h = min(x, 0.3) with no declared breakpoint: below 0.3 f' = 1 - 1/x,
        # on [0.3, 1/2] f' = 0.3 (x - 1) / x^2, anchored at f(1/2) = 0
        f = build_f_from_h(HGenerator(lambda x: np.minimum(x, 0.3), label="kink"))
        x = f.knots[f.knots <= 0.5]
        upper = 0.3 * (np.log(x) + 1 / x) - 0.3 * (math.log(0.5) + 2)
        at_kink = 0.3 * (math.log(0.3) + 1 / 0.3) - 0.3 * (math.log(0.5) + 2)
        lower = at_kink + (x - np.log(x)) - (0.3 - math.log(0.3))
        want = np.where(x < 0.3, lower, upper)
        assert np.max(np.abs(f.knot_values[:len(x)] - want)) <= 1e-10

    def test_nan_h_diverges(self):
        bad = HGenerator(lambda x: np.where(np.asarray(x) < 0.1, np.nan, x),
                         label="nan below 0.1")
        with pytest.raises(FamilyError, match="quadrature diverged"):
            build_f_from_h(bad, validate=False)

    def test_quadrature_error_reported(self):
        for name in ("square", "kl", "linear", "ramp"):
            f = build_f_from_h(gen(name))
            assert f.quad_error <= 1e-12
            assert f.quad_panels >= len(f.knots) - 1
            # DEFAULT_SAMPLES // 2 knots per half, sharing 1/2, plus any
            # breakpoint and its reflection
            assert len(f.knots) == DEFAULT_SAMPLES - 1 + 2 * (name == "ramp")

    @pytest.mark.parametrize("breakpoints", [
        (), (0.25,), (0.5,),
        (float(np.geomspace(QUAD_DOMAIN_LO, 0.5, DEFAULT_SAMPLES // 2)[1000]),)])
    def test_knots_are_the_unique_sorted_knots(self, breakpoints):
        # the geometric knots of both halves, 1/2 and each breakpoint with its
        # reflection, each once: what np.unique of them gives, bit for bit
        f = build_f_from_h(HGenerator(gen("square").h, breakpoints=breakpoints))
        lower = np.geomspace(QUAD_DOMAIN_LO, 0.5, DEFAULT_SAMPLES // 2)
        every = np.concatenate([lower, 1.0 - lower, [0.5],
                                *[[bp, 1.0 - bp] for bp in breakpoints]])
        assert np.all(np.diff(f.knots) > 0)
        assert np.array_equal(f.knots, np.unique(every))
        assert len(f.knots) < len(every)

    def test_decreasing_near_one_matches_closed_form(self):
        # above 1/2, h = 1/2 - x gives f(x) = (x - 1/2) + ln(2 (1 - x)) / 2;
        # 1 - x is exact there, so numpy evaluates the closed form to rounding
        f = build_f_from_h(gen("decreasing"), validate=False)
        x = f.knots[f.knots > 1.0 - 1e-6]
        want = (x - 0.5) + 0.5 * np.log(2.0 * (1.0 - x))
        got = f.knot_values[f.knots > 1.0 - 1e-6]
        assert x.size > 100
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_table_self_consistency(self):
        # differentiating the knot table numerically recovers G(x)/x
        f = build_f_from_h(gen("square"))
        k, v = f.knots, f.knot_values
        mid = 0.5 * (k[:-1] + k[1:])
        slopes = np.diff(v) / np.diff(k)
        inner = (mid > 0.05) & (mid < 0.95)
        assert np.max(np.abs(slopes[inner] - f.deriv(mid)[inner])) <= 1e-6


TABLE_H = ("square", "ramp", "kl", "decreasing")
# both faces, a signed zero, the smallest subnormal, the anchor, the last
# double below 1 and NaN
EDGE_X = (0.0, 1.0, -0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, math.nan)


@functools.cache
def table_and_spline(name):
    from scipy.interpolate import CubicHermiteSpline
    f = build_f_from_h(gen(name), validate=False)
    return f, CubicHermiteSpline(f.knots, f.knot_values, f.deriv(f.knots))


@pytest.mark.parametrize("name", TABLE_H)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_table_values_are_scipys(name, data):
    # the table's own lookup and evaluation against scipy's spline on the
    # same knots, values and slopes, at the clamped points
    f, spline = table_and_spline(name)
    k = f.knots
    knot = st.builds(lambda i, side: np.nextafter(k[i], side * np.inf) if side else k[i],
                     st.integers(0, k.size - 1), st.sampled_from((-1, 0, 1)))
    point = st.one_of(st.sampled_from(EDGE_X), knot, st.floats(0.0, 1.0))
    shape = data.draw(st.sampled_from(((), (7,), (3, 4))))
    size = math.prod(shape)
    x = np.array(data.draw(st.lists(point, min_size=size, max_size=size)),
                 dtype=float).reshape(shape)
    got = f(x)
    want = spline(np.clip(x, k[0], k[-1]))
    assert got.shape == shape
    assert got.tobytes() == want.tobytes()


class TestKLTypeFromH:
    def test_square_gives_half_squared_distance(self):
        d = kl_type_from_h(gen("square"))
        rng = np.random.default_rng(4)
        p = rng.uniform(0.01, 0.99, 500)
        q = rng.uniform(0.01, 0.99, 500)
        got = d.evaluate_batch(binary_rows(p), binary_rows(q))
        assert np.max(np.abs(got - 0.5 * (p - q) ** 2)) <= 1e-8

    def test_ratio_gives_binary_kl(self):
        d = kl_type_from_h(gen("kl"))
        ref = catalog("kl")
        rng = np.random.default_rng(9)
        p = rng.uniform(0.01, 0.99, 500)
        q = rng.uniform(0.01, 0.99, 500)
        got = d.evaluate_batch(binary_rows(p), binary_rows(q))
        want = ref.evaluate_batch(binary_rows(p), binary_rows(q))
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_linear_h_quadrature_vs_closed_form(self):
        d = kl_type_from_h(gen("linear"))

        def f_closed(x):
            return np.where(x <= 0.5, x - np.log(x) - 0.5 + math.log(0.5), 0.5 - x)

        rng = np.random.default_rng(14)
        p = rng.uniform(0.01, 0.99, 300)
        q = rng.uniform(0.01, 0.99, 300)
        want = p * (f_closed(q) - f_closed(p)) \
            + (1 - p) * (f_closed(1 - q) - f_closed(1 - p))
        got = d.evaluate_batch(binary_rows(p), binary_rows(q))
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_binary_only(self):
        d = kl_type_from_h(gen("square"))
        with pytest.raises(Exception):
            d.evaluate([0.2, 0.3, 0.5], [0.3, 0.3, 0.4])

    def test_nonnegative_on_grid(self):
        for name in ("square", "linear", "kl", "ramp"):
            d = kl_type_from_h(gen(name))
            g = np.linspace(1 / 201, 200 / 201, 200)
            vals = d.evaluate_binary_pairs(g)
            assert np.min(vals) >= -1e-10


class TestSymmetricConvexG:
    def test_brier_generator(self):
        g = SymmetricConvexG(lambda x: x ** 2 + (1 - x) ** 2,
                             d_g2=lambda x: 4 * np.asarray(x) - 2, label="brier")
        d = bregman_from_symmetric_g(g)
        rng = np.random.default_rng(21)
        p = rng.uniform(0.01, 0.99, 200)
        q = rng.uniform(0.01, 0.99, 200)
        got = d.evaluate_batch(binary_rows(p), binary_rows(q))
        assert np.allclose(got, 2 * (p - q) ** 2, atol=1e-12)

    def test_negative_binary_entropy_gives_kl(self):
        g = SymmetricConvexG(
            lambda x: x * np.log(x) + (1 - x) * np.log(1 - x),
            d_g2=lambda x: np.log(x) - np.log(1 - x), label="negent")
        d = bregman_from_symmetric_g(g)
        ref = catalog("kl")
        rng = np.random.default_rng(22)
        p = rng.uniform(0.01, 0.99, 200)
        q = rng.uniform(0.01, 0.99, 200)
        got = d.evaluate_batch(binary_rows(p), binary_rows(q))
        want = ref.evaluate_batch(binary_rows(p), binary_rows(q))
        assert np.allclose(got, want, atol=1e-10)

    def test_kink_rejected(self):
        with pytest.raises(FamilyError, match="derivative jump"):
            bregman_from_symmetric_g(
                SymmetricConvexG(lambda x: np.maximum(x, 1 - x),
                                 d_g2=lambda x: np.sign(np.asarray(x) - 0.5),
                                 label="max"))

    def test_asymmetric_rejected(self):
        with pytest.raises(FamilyError, match="asymmetric"):
            bregman_from_symmetric_g(
                SymmetricConvexG(lambda x: np.square(x),
                                 d_g2=lambda x: 2 * np.asarray(x), label="x^2"))

    def test_concave_rejected(self):
        with pytest.raises(FamilyError, match="convexity"):
            bregman_from_symmetric_g(
                SymmetricConvexG(lambda x: -np.square(x - 0.5),
                                 d_g2=lambda x: 1 - 2 * np.asarray(x),
                                 label="cap"))

    def test_derivative_required(self):
        with pytest.raises(TypeError):
            SymmetricConvexG(lambda x: np.square(x - 0.5), label="u^2")

    def test_random_generator_exact_on_faces(self):
        # the entropy term's slope is -inf at 0 and +inf at 1, not a clipped
        # finite number, so a face Q away from P is +inf
        d = bregman_from_symmetric_g(
            random_symmetric_convex_g(np.random.default_rng(7)))
        assert d.evaluate([0.5, 0.5], [0.0, 1.0]) == np.inf
        assert d.evaluate([0.5, 0.5], [1.0, 0.0]) == np.inf
        assert d.evaluate([0.0, 1.0], [0.0, 1.0]) == 0.0

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_generator_products_match_powers(self, seed):
        # g2 and d_g2 write u**4 and u**3 as products of u * u; against the
        # ** forms they differ by rounding only, a few ulps of the term scale
        g = random_symmetric_convex_g(np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        c_quad, c_quart, c_cosh, rate, c_ent = (
            rng.uniform(a, b) for a, b in ((0.1, 3.0), (0.0, 2.0), (0.0, 1.0),
                                           (1.0, 4.0), (0.0, 1.0)))
        x = np.concatenate([np.linspace(0.0, 1.0, 1001), rng.uniform(size=1000)])
        u = x - 0.5
        inside = (x > 0) & (x < 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = np.where(inside, x * np.log(x) + (1 - x) * np.log(1 - x), 0.0)
            d_ent = np.log(x) - np.log(1 - x)
        terms = (c_quad * u ** 2, c_quart * u ** 4, c_cosh * np.cosh(rate * u),
                 c_ent * ent)
        d_terms = (2 * c_quad * u, 4 * c_quart * u ** 3,
                   c_cosh * rate * np.sinh(rate * u), c_ent * d_ent)
        eps = np.finfo(float).eps
        want = terms[0] + terms[1] + terms[2] + terms[3]
        scale = sum(np.abs(t) for t in terms)
        assert np.all(np.abs(g.g2(x) - want) <= 4 * eps * scale)
        d_want = d_terms[0] + d_terms[1] + d_terms[2] + d_terms[3]
        d_got = g.derivative(x)
        assert np.array_equal(d_got[~inside], d_want[~inside])
        d_scale = sum(np.abs(t[inside]) for t in d_terms)
        assert np.all(np.abs(d_got[inside] - d_want[inside]) <= 4 * eps * d_scale)
        # and d_g2 is the slope of g2: central differences on the interior
        x = np.linspace(0.05, 0.95, 181)
        fd = (g.g2(x + 1e-5) - g.g2(x - 1e-5)) / 2e-5
        assert np.all(np.abs(g.derivative(x) - fd) <= 1e-7 * np.maximum(1.0, np.abs(fd)))

    def test_random_generators_valid(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            g = random_symmetric_convex_g(rng)
            g.validate()
            # analytic derivative consistent with finite differences
            x = np.linspace(0.05, 0.95, 19)
            fd = (np.asarray(g.g2(x + 1e-6)) - np.asarray(g.g2(x - 1e-6))) / 2e-6
            assert np.allclose(g.derivative(x), fd, atol=1e-6)


class TestParsing:
    def test_poly(self):
        g = h_generator_from_spec("poly:0,0,1")
        x = np.linspace(0, 0.5, 11)
        assert np.allclose(g.h(x), x ** 2)
        assert g.breakpoints == ()

    def test_poly_family_matches_named(self):
        d1 = kl_type_from_h(h_generator_from_spec("poly:0,0,1"))
        d2 = kl_type_from_h(h_generator_from_spec("name:square"))
        p, q = [0.3, 0.7], [0.6, 0.4]
        assert d1.evaluate(p, q) == pytest.approx(d2.evaluate(p, q), abs=1e-10)

    def test_table(self, tmp_path):
        path = tmp_path / "h.csv"
        x = np.linspace(1e-4, 0.5, 64)
        np.savetxt(path, np.column_stack([x, x ** 2]), delimiter=",")
        g = h_generator_from_spec(f"table:{path}")
        assert float(g.h(0.25)) == pytest.approx(0.0625, abs=1e-6)

    def test_step_table(self, tmp_path):
        # nonnegative and nondecreasing: a monotone interpolant stays so
        path = tmp_path / "h.csv"
        path.write_text("0,0\n0.1,0\n0.2,1\n0.3,1\n0.5,1\n")
        g = h_generator_from_spec(f"table:{path}")
        g.validate()
        h = g.h(np.linspace(0.0, 0.5, 501))
        assert h.min() == 0.0 and h.max() == 1.0 and (np.diff(h) >= 0).all()
        assert cli.main(["generate", "--h", f"table:{path}",
                         "--out", str(tmp_path / "fam.csv")]) == 0

    def test_bad_specs(self):
        for text in ("square", "name:nope", "poly:a,b", "knots:1,2"):
            with pytest.raises(FamilyError):
                h_generator_from_spec(text)

    def test_family_csv(self, tmp_path, capsys):
        path = tmp_path / "fam.csv"
        assert cli.main(["generate", "--h", "name:square", "--out", str(path),
                         "--points", "32"]) == 0
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (32, 3)
        x = rows[:, 0]
        assert np.allclose(rows[:, 1], np.where(x <= 0.5, x * (x - 1),
                                                (1 - x) * -x), atol=1e-12)

    def test_family_table_columns(self):
        t = family_table(gen("zero"), points=16)
        assert t.shape == (16, 3)
        assert np.allclose(t[:, 1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("points", [0, -3])
    def test_family_table_needs_a_point(self, points):
        with pytest.raises(FamilyError, match=f"at least 1 point, got {points}"):
            family_table(gen("zero"), points=points)
