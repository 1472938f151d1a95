"""Constructive divergence families for binary alphabets.

Two constructions:

* KL-type distances generated from a nonnegative nondecreasing function h on
  (0, 1/2]: set G(x) = (x-1) h(x) / x there, reflect G(x) = G(1-x) on the
  upper half, and integrate f'(x) = G(x)/x into a knot table anchored at
  f(1/2) = 0 by composite Gauss–Legendre quadrature with an embedded error
  estimate.  Every valid h yields a divergence with the data-processing
  property; a decreasing h breaks it.
* Bregman divergences generated by a symmetric convex g2 on [0, 1] through
  G(p, 1-p) = g2(p).  These are exactly the binary Bregman divergences that
  are invariant under sufficient transformations.

Each generator is checked once, where the divergence is built:
`build_f_from_h` checks h (so `kl_type_from_h` and `family_table` do too,
unless asked not to), and `bregman_from_symmetric_g` checks g2 with
`check_symmetric_g2` and the G it builds with `check_gradient`.  Both
families are binary, and the `DivergenceSpec` each returns holds that
alphabet size, n = 2; the generators themselves carry none.

Building a table loads neither scipy (unless h is read from a `table:` CSV)
nor `numpy.ma`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .divergences import (DivergenceError, DivergenceSpec, ScalarFunction,
                          check_finite, check_gradient)

H_GRID_TOL = 1e-12        # slack for the h >= 0 / nondecreasing grid checks
SYMMETRY_TOL = 1e-12
QUAD_DOMAIN_LO = 1e-9     # f tables are truncated to [lo, 1-lo]
QUAD_TOL = 1e-10          # relative tolerance per quadrature panel
QUAD_ABS_TOL = 1e-13
QUAD_MAX_LEVELS = 16      # bisection depth cap for panels over tolerance
GL_NODES = 10             # Gauss-Legendre order; the embedded rule has half
DEFAULT_SAMPLES = 4096    # f-table knots: half of them geometric on each side of 1/2

_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(GL_NODES)
_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(GL_NODES // 2)
_GL_X = np.concatenate([_GL_HI_X, _GL_LO_X])


class FamilyError(DivergenceError):
    """Raised when a generator violates the family's invariants."""


# ---------------------------------------------------------------------------
# h generators and the KL-type family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HGenerator:
    """A candidate h on (0, 1/2] and the kinks its table must keep.

    `breakpoints` lists interior points where h (or its derivative) has a
    kink; they become table knots so interpolation stays clean across them.
    """

    h: Callable
    label: str = "h"
    breakpoints: tuple[float, ...] = ()

    def validate(self) -> None:
        v = np.asarray(self.h(np.geomspace(QUAD_DOMAIN_LO, 0.5, 512)), dtype=float)
        check_finite(f"h({self.label})", v)
        if np.min(v) < -H_GRID_TOL:
            raise FamilyError(f"h({self.label}) is negative: min {np.min(v):.3g}")
        # flat segments are allowed, strict decreases are not
        if np.min(np.diff(v)) < -H_GRID_TOL:
            raise FamilyError(f"h({self.label}) decreases on (0, 1/2]")


def build_G_from_h(gen: HGenerator) -> ScalarFunction:
    """G(x) = (x-1) h(x) / x on (0, 1/2], reflected onto [1/2, 1).

    Nonpositive everywhere for valid h; h itself is checked by
    `build_f_from_h`, not here.
    """

    def G(x):
        xl = np.where(x <= 0.5, x, 1.0 - x)
        return (xl - 1.0) * np.asarray(gen.h(xl)) / xl
    return ScalarFunction(G, label=f"G[{gen.label}]")


def _panel_rules(fprime: Callable, a: np.ndarray, b: np.ndarray):
    """Gauss–Legendre sums on every panel [a[i], b[i]] from one fprime call.

    Returns the GL_NODES-point sum and its distance from the embedded
    GL_NODES // 2-point sum, which serves as the error estimate.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = fprime(mid[:, None] + half[:, None] * _GL_X[None, :])
    hi = half * (y[:, :GL_NODES] @ _GL_HI_W)
    lo = half * (y[:, GL_NODES:] @ _GL_LO_W)
    return hi, np.abs(hi - lo)


def _composite_gauss_legendre(fprime: Callable, knots: np.ndarray):
    """Integrate fprime over every gap between consecutive knots.

    All panels are evaluated together; a panel whose estimated error exceeds
    max(QUAD_ABS_TOL, QUAD_TOL * |sum|) is bisected, and all flagged panels
    are refined together, one array step per level.  After QUAD_MAX_LEVELS
    bisections a panel is accepted as it stands, because a jump in h can
    hold an estimate above tolerance at any width; the returned error bound
    then shows it.  Returns the integral of each gap, the largest error
    estimate of any final panel and the number of final panels.
    """
    n = len(knots) - 1
    owner = np.arange(n)
    a, b = knots[:-1], knots[1:]
    seg = np.zeros(n)
    worst, panels = 0.0, 0
    for level in range(QUAD_MAX_LEVELS + 1):
        est, err = _panel_rules(fprime, a, b)
        # NaN compares False, so a non-finite sum is accepted and reported
        split = err > np.maximum(QUAD_ABS_TOL, QUAD_TOL * np.abs(est))
        if level == QUAD_MAX_LEVELS:
            split[:] = False
        done = ~split
        seg += np.bincount(owner[done], weights=est[done], minlength=n)
        worst = max(worst, float(np.max(err[done], initial=0.0)))
        panels += int(np.count_nonzero(done))
        if not split.any():
            break
        a, b, owner = a[split], b[split], owner[split]
        m = 0.5 * (a + b)
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        owner = np.concatenate([owner, owner])
    return seg, worst, panels


def build_f_from_h(gen: HGenerator, validate: bool = True) -> ScalarFunction:
    """Integrate f'(x) = G(x)/x into a knot table anchored at f(1/2) = 0.

    Knots are geometric in both halves of (0, 1), with declared breakpoints
    (and their reflections) inserted; each gap is integrated with composite
    Gauss–Legendre quadrature, vectorized over all gaps, with an embedded
    lower-order rule deciding which panels to bisect.  The upper half is
    integrated in u = 1 - x, where f'(1 - u) = -h(u)/u: quadrature nodes near
    x = 1 would lose the relative precision of 1 - x, while u_k = 1 - x_k is
    exact for every knot x_k >= 1/2.  The table carries
    `quad_error` (the largest error estimate of any final panel) and
    `quad_panels` (the number of final panels).  The table interpolates with
    the exact derivative G(x)/x at every knot, and the derivative evaluator
    returns G(x)/x directly rather than differentiating the table.  The
    reflection at 1/2 generally puts a curvature jump there, which is why 1/2
    is always a knot.  `validate=False` skips the h invariants so that
    deliberately broken generators can be probed.
    """
    if validate:
        gen.validate()
    G = build_G_from_h(gen)

    def fprime(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(G(x)) / x

    half = DEFAULT_SAMPLES // 2
    lower = np.geomspace(QUAD_DOMAIN_LO, 0.5, half)
    extra = [0.5]
    for bp in gen.breakpoints:
        if QUAD_DOMAIN_LO < bp < 1.0 - QUAD_DOMAIN_LO:
            extra += [bp, 1.0 - bp]
    # sort and drop repeats by hand: np.unique imports numpy.ma
    knots = np.sort(np.concatenate([lower, 1.0 - lower, extra]))
    knots = knots[np.concatenate([[True], knots[1:] > knots[:-1]])]
    anchor = int(np.searchsorted(knots, 0.5))

    def fprime_upper(u):
        u = np.asarray(u, dtype=float)
        return -np.asarray(gen.h(u)) / u

    seg_lo, worst_lo, panels_lo = _composite_gauss_legendre(
        fprime, knots[:anchor + 1])
    # gap [x_i, x_i+1] is the u-gap [1 - x_i+1, 1 - x_i], in reverse order
    seg_hi, worst_hi, panels_hi = _composite_gauss_legendre(
        fprime_upper, (1.0 - knots[anchor:])[::-1])
    seg = np.concatenate([seg_lo, seg_hi[::-1]])
    worst, panels = max(worst_lo, worst_hi), panels_lo + panels_hi
    bad = np.flatnonzero(~np.isfinite(seg))
    if bad.size:
        i = int(bad[0])
        raise FamilyError(
            f"quadrature diverged on [{knots[i]:.3g}, {knots[i + 1]:.3g}]")
    vals = np.zeros_like(knots)
    vals[anchor + 1:] = np.cumsum(seg[anchor:])
    vals[:anchor] = -np.cumsum(seg[:anchor][::-1])[::-1]

    fn = ScalarFunction.from_table(knots, vals, deriv=fprime,
                                   label=f"f[{gen.label}]",
                                   deriv_values=fprime(knots))
    fn.quad_error = worst
    fn.quad_panels = panels
    return fn


def kl_type_from_h(gen: HGenerator, validate: bool = True) -> DivergenceSpec:
    """The KL-type divergence generated by h, restricted to binary alphabets."""
    f = build_f_from_h(gen, validate=validate)
    return DivergenceSpec("kl_type", f"kl_type[{gen.label}]", f=f, n=2)


# -- h parsing ---------------------------------------------------------------

# name -> (callable, kink locations on (0, 1/2])
H_CATALOG: dict[str, tuple[Callable, tuple[float, ...]]] = {
    "square": (lambda x: np.square(x), ()),
    "linear": (lambda x: np.asarray(x, dtype=float), ()),
    "kl": (lambda x: x / (1.0 - x), ()),
    "ramp": (lambda x: np.minimum(x, 0.25), (0.25,)),
    "zero": (lambda x: np.zeros_like(np.asarray(x, dtype=float)), ()),
    # invalid on purpose: a decreasing h breaks data processing
    "decreasing": (lambda x: 0.5 - x, ()),
}


def h_generator_from_spec(text: str) -> HGenerator:
    """The h generator an h description names: "name:<catalog>",
    "poly:c0,c1,..." (low-to-high coefficients) or "table:<csv path>" with
    two columns x, h(x).  The description is the generator's label."""
    if ":" not in text:
        raise FamilyError(f"h spec {text!r} must look like name:..., poly:... or table:...")
    kind, _, rest = text.partition(":")
    if kind == "name":
        if rest not in H_CATALOG:
            raise FamilyError(f"unknown h name {rest!r}; known: {', '.join(H_CATALOG)}")
        fn, breaks = H_CATALOG[rest]
        return HGenerator(fn, label=text, breakpoints=breaks)
    if kind == "poly":
        try:
            coeffs = [float(c) for c in rest.split(",")]
        except ValueError as e:
            raise FamilyError(f"bad polynomial coefficients in {text!r}: {e}") from None
        poly = np.polynomial.Polynomial(coeffs)
        return HGenerator(lambda x: poly(np.asarray(x, dtype=float)), label=text)
    if kind == "table":
        rows = np.loadtxt(rest, delimiter=",", ndmin=2)
        if rows.shape[1] != 2:
            raise FamilyError(f"h table {rest!r} must have two columns x,h(x)")
        xs, hs = rows[:, 0], rows[:, 1]
        if np.any(np.diff(xs) <= 0):
            raise FamilyError("h table x column must be strictly increasing")
        from scipy.interpolate import PchipInterpolator  # monotone; only a table h loads scipy
        spline = PchipInterpolator(xs, hs)
        lo, hi = float(xs[0]), float(xs[-1])
        return HGenerator(lambda x: spline(np.clip(x, lo, hi)), label=text)
    raise FamilyError(f"unknown h spec kind {kind!r}")


def family_table(gen: HGenerator, points: int = 512,
                 validate: bool = True) -> np.ndarray:
    """Columns (x, G(x), f(x)) on an interior grid, ready for plotting."""
    if points < 1:
        raise FamilyError(f"a family table needs at least 1 point, got {points}")
    f = build_f_from_h(gen, validate=validate)
    G = build_G_from_h(gen)
    x = np.linspace(0.005, 0.995, points)
    return np.column_stack([x, np.asarray(G(x)), np.asarray(f(x))])


# ---------------------------------------------------------------------------
# symmetric convex generators and the binary Bregman family
# ---------------------------------------------------------------------------

def check_symmetric_g2(g: ScalarFunction) -> None:
    """Spot-check that g2 on [0, 1] is finite, symmetric (g2(x) = g2(1-x)),
    convex and differentiable inside.

    `g.deriv` is the exact g2'; it may be -inf at 0 and +inf at 1 (negative
    binary entropy), and the Bregman kernel handles those faces.
    """
    x = np.linspace(0.01, 0.99, 197)
    v = np.asarray(g(x), dtype=float)
    sym = np.max(np.abs(v - np.asarray(g(1.0 - x))))
    mid = 0.5 * (x[:-1] + x[1:])
    gap = 0.5 * (v[:-1] + v[1:]) - np.asarray(g(mid))
    check_finite(f"g2({g.label})", sym, gap)
    if sym > SYMMETRY_TOL:
        raise FamilyError(f"g2({g.label}) asymmetric by {sym:.3g}")
    if np.min(gap) < -H_GRID_TOL:
        raise FamilyError(f"g2({g.label}) fails midpoint convexity")
    # compare one-sided slopes at the same point: for smooth g2 the
    # left/right gap shrinks linearly with the stencil, at a kink it stays
    x = np.linspace(0.02, 0.98, 961)

    def onesided_gap(h):
        v = np.asarray(g(x))
        right = (np.asarray(g(x + h)) - v) / h
        left = (v - np.asarray(g(x - h))) / h
        return np.abs(right - left)

    coarse = onesided_gap(2e-3)
    fine = onesided_gap(2e-4)
    scale = max(1.0, float(np.max(np.abs(g.deriv(x)))))
    kink = (fine > 0.3 * coarse) & (fine > 1e-3 * scale)
    if np.any(kink):
        k = int(np.argmax(np.where(kink, fine, -np.inf)))
        raise FamilyError(
            f"g2({g.label}) has a derivative jump near x={x[k]:.4g}; "
            "the generator must be differentiable on the interior")


def bregman_from_symmetric_g(g: ScalarFunction) -> DivergenceSpec:
    """Binary Bregman divergence with G(p, 1-p) = g2(p), for g2 = g with
    g2' = g.deriv.  `check_symmetric_g2` checks g2 and `check_gradient` the
    G built from it, so the spec is built without its own convexity
    spot-check."""
    check_symmetric_g2(g)

    def grad(Q):
        out = np.zeros_like(Q)
        out[..., 0] = g.deriv(Q[..., 0])
        return out

    G = ScalarFunction(lambda P: np.asarray(g(P[..., 0])), deriv=grad,
                       label=f"G[{g.label}]")
    check_gradient(G, 2)
    return DivergenceSpec("bregman", f"bregman[{g.label}]", G=G, n=2,
                          validate=False)


def random_symmetric_convex_g(rng: np.random.Generator) -> ScalarFunction:
    """A random positive combination of smooth symmetric convex basis terms.

    Integer powers of the signed u = x - 1/2 are written as products: numpy's
    `**` hands every negative base to scalar `pow`, which is over ten times
    slower than the vector multiply.
    """
    c_quad = rng.uniform(0.1, 3.0)
    c_quart = rng.uniform(0.0, 2.0)
    c_cosh = rng.uniform(0.0, 1.0)
    rate = rng.uniform(1.0, 4.0)
    c_ent = rng.uniform(0.0, 1.0)

    def g2(x):
        x = np.asarray(x, dtype=float)
        u = x - 0.5
        u2 = u * u
        ent = np.where((x > 0) & (x < 1),
                       x * np.log(np.clip(x, 1e-300, None))
                       + (1 - x) * np.log(np.clip(1 - x, 1e-300, None)),
                       0.0)
        return (c_quad * u2 + c_quart * (u2 * u2)
                + c_cosh * np.cosh(rate * u) + c_ent * ent)

    def d_g2(x):
        x = np.asarray(x, dtype=float)
        u = x - 0.5
        u2 = u * u
        # -inf at 0 and +inf at 1: the exact slope of the entropy term
        with np.errstate(divide="ignore"):
            ent = np.log(x) - np.log(1 - x)
        return (2 * c_quad * u + 4 * c_quart * (u2 * u)
                + c_cosh * rate * np.sinh(rate * u) + c_ent * ent)

    label = f"rand[{c_quad:.3f},{c_quart:.3f},{c_cosh:.3f},{rate:.3f},{c_ent:.3f}]"
    return ScalarFunction(g2, deriv=d_g2, label=label)
