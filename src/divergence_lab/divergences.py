"""Divergence families on the probability simplex with a uniform evaluate API.

Three families are built in (plus a composed wrapper, k(D) for a
nondecreasing outer function k):

* f-divergences       sum_i q_i f(p_i / q_i), f convex with f(1) = 0
* Bregman divergences G(P) - G(Q) - <grad G(Q), P - Q>, G convex
* KL-type distances   sum_k p_k (f(q_k) - f(p_k))

Boundary conventions follow the usual perspective limits: a term with
q_i = 0 = p_i contributes 0, and a term with q_i = 0 < p_i contributes
p_i * lim_{x->inf} f(x)/x, a limit every f-divergence generator declares
(+inf when it diverges).  Where p_i / q_i overflows at a subnormal
q_i > 0 the term is that limit too if it is finite; an infinite one leaves
the value unknown and raises DivergenceError.  0*log(0) is 0.
Every generator is a ScalarFunction.  A Bregman G declares its exact
gradient as its `deriv`, which may be infinite on a face of the simplex
(negative entropy): a coordinate with p_i = q_i adds 0 to <grad G(Q), P - Q>,
and an infinite gradient with p_i != q_i makes the divergence +inf.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Callable

import numpy as np

from .simplex import Distribution, row_sum

CONVEXITY_TOL = 1e-10   # midpoint convexity slack for generator spot-checks
F_AT_ONE_TOL = 1e-12
GRADIENT_STEP = 1e-5    # central-difference step of the gradient spot-check
GRADIENT_TOL = 1e-5     # its relative error bound

CATALOG_NAMES = ("kl", "tv", "hellinger", "chi2", "brier", "euclidean", "tv_squared")


class DivergenceError(ValueError):
    """Raised for invalid generators, domains, or evaluation preconditions."""


# ---------------------------------------------------------------------------
# generators and their spot-checks
# ---------------------------------------------------------------------------

class _HermiteTable:
    """The piecewise cubic Hermite interpolant through (knots, values) with
    the given slopes at the knots, evaluated with the bits of scipy's
    CubicHermiteSpline: its coefficients, its order of operations, and its
    intervals [knots[i], knots[i+1]), the last one closed.

    The interval of a point is looked up, not searched for: a table built
    once maps a nondecreasing integer key of x to a bucket and the bucket to
    the first interval it can hold, and at most `_steps` vectorised
    `knots[i + 1] <= x` passes finish the job.  The key is the bit pattern
    of x - lo below the middle knot and minus that of hi - x above it (a
    nonnegative double orders like its bits), so knots crowding either end
    of the table, as geometric ones do, still spread over the buckets.
    """

    def __init__(self, knots, values, slopes):
        dx = np.diff(knots)
        slope = np.diff(values) / dx
        t = (slopes[:-1] + slopes[1:] - 2 * slope) / dx
        # highest degree first; scipy's sum starts from 0.0, and 0.0 + y
        # turns a -0.0 value into 0.0 as that sum does
        self._c = np.stack([t / dx, (slope - slopes[:-1]) / dx - t,
                            slopes[:-1], values[:-1] + 0.0])
        self._knots = knots
        # the right end of each interval; the last interval is closed
        self._right = np.append(knots[1:-1], np.inf)
        self._lo, self._hi = knots[0], knots[-1]
        self._mid = knots[len(knots) // 2]
        self._below = (self._mid - self._lo).view(np.int64)
        self._above = (self._hi - self._mid).view(np.int64)
        # the interval of x is the number of interior knots <= x; a bucket
        # starts at the number of interior knots whose key lies below it
        keys = self._key(knots[1:-1])
        self._base = int(keys[0]) if keys.size else 0
        span = int(keys[-1]) - self._base if keys.size else 0
        self._shift = (span // (4 * len(knots))).bit_length()
        edges = self._base + (np.arange((span >> self._shift) + 1, dtype=np.int64)
                              << self._shift)
        self._start = np.searchsorted(keys, edges)
        self._top = int(edges[-1])
        self._steps = int(np.max(np.diff(self._start, append=keys.size)))

    def _key(self, x):
        below = (x - self._lo).view(np.int64) - self._below
        above = self._above - (self._hi - x).view(np.int64)
        return np.where(x <= self._mid, below, above)

    def __call__(self, x):
        # the values keep x's memory order, so broadcasts that follow run
        # along the same axis as they would on x; out is a fresh dense copy
        # of x, so its memory-order ravel is a view to write the values into
        out = np.array(x, dtype=float, order="K")
        x = out.ravel(order="K")
        bucket = np.clip(self._key(x), self._base, self._top)
        bucket -= self._base
        bucket >>= self._shift
        i = self._start[bucket]
        for _ in range(self._steps):
            i += self._right[i] <= x
        c0, c1, c2, c3 = self._c[:, i]
        s = x - self._knots[i]
        s2 = s * s
        x[:] = ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)
        return out


class ScalarFunction:
    """A real function of numbers or of rows (..., n), with its derivative
    when one is given: the one generator type of every family.

    An f, an outer k, a Shannon f or a binary g2 maps numbers to numbers.  A
    Bregman G maps rows of shape (..., n) to shape (...), finite on the
    whole closed simplex, and its `deriv` returns gradient rows of its
    argument's shape; on a face they may be +-inf (negative entropy), which
    `bregman_batch` resolves exactly.  The alphabet size is the spec's.

    Either closed-form callables or a quadrature table: strictly increasing
    knots, cubic Hermite interpolation between them, inputs clamped to the
    tabulated domain.  The program evaluates a table itself, with scipy's
    CubicHermiteSpline coefficients and order of operations and so with its
    bits, and finds each point's interval by a lookup built once per table.
    `perspective_limit` is lim_{x -> inf} f(x)/x, which an f-divergence
    generator must declare; it is never estimated.
    """

    def __init__(self, value: Callable, deriv: Callable | None = None,
                 label: str = "", perspective_limit: float | None = None):
        self.label = label
        self._value = value
        self._deriv = deriv
        self.perspective_limit = perspective_limit

    @classmethod
    def from_table(cls, knots: np.ndarray, values: np.ndarray,
                   deriv_values: np.ndarray, deriv: Callable | None = None,
                   label: str = "") -> "ScalarFunction":
        """Tabulated function with cubic interpolation between knots.

        The interpolant is the piecewise cubic Hermite matching values and
        first derivatives at the knots; it is local, so a curvature jump
        placed exactly on a knot does not pollute the neighbouring intervals.
        Its values are bit-equal to scipy's CubicHermiteSpline on the same
        data, without loading scipy or binary-searching per point; NaN gives
        NaN.
        """
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(np.diff(knots) <= 0):
            raise DivergenceError("table knots must be strictly increasing")
        table = _HermiteTable(knots, values, np.asarray(deriv_values, dtype=float))
        lo, hi = float(knots[0]), float(knots[-1])

        def value(x, _t=table, _lo=lo, _hi=hi):
            return _t(np.clip(x, _lo, _hi))

        fn = cls(value, deriv=deriv, label=label)
        fn.knots = knots
        fn.knot_values = values
        return fn

    def __call__(self, x):
        return self._value(np.asarray(x, dtype=float))

    def deriv(self, x):
        if self._deriv is None:
            raise DivergenceError(f"{self.label or 'function'} has no derivative")
        return self._deriv(np.asarray(x, dtype=float))


def check_finite(name: str, *values) -> None:
    """Reject a generator whose spot-check values are not all finite: a NaN
    passes every `<` test."""
    if not all(np.isfinite(v).all() for v in values):
        raise DivergenceError(f"{name} is not finite at every spot-check point")


def check_f_generator(f: ScalarFunction) -> None:
    """Spot-check that f is finite and convex on (0, inf) with f(1) = 0, and
    that its declared lim f(x)/x is no less than its chord slope on [1, 50]."""
    x = np.geomspace(0.01, 50.0, 200)
    mid = 0.5 * (x[:-1] + x[1:])
    gap = 0.5 * (f(x[:-1]) + f(x[1:])) - f(mid)
    check_finite(f"f {f.label!r}", f(1.0), gap)
    if abs(float(f(1.0))) > F_AT_ONE_TOL:
        raise DivergenceError(f"f(1) = {float(f(1.0)):.3g}, must be 0")
    if np.min(gap) < -CONVEXITY_TOL:
        raise DivergenceError(f"f fails midpoint convexity by {-np.min(gap):.3g}")
    # for convex f the chord slope (f(x) - f(1)) / (x - 1) rises toward the limit
    chord = float(f(50.0) - f(1.0)) / 49.0
    if f.perspective_limit < chord - CONVEXITY_TOL:
        raise DivergenceError(
            f"f {f.label!r} declares lim f(x)/x = {f.perspective_limit:.3g}, "
            f"below its chord slope {chord:.3g} on [1, 50]")


def check_outer(k: ScalarFunction) -> None:
    """Spot-check that k is finite and nondecreasing with k(0) = 0."""
    v = np.asarray(k(np.linspace(0.0, 10.0, 200)))
    check_finite(f"k {k.label!r}", k(0.0), v)
    if abs(float(k(0.0))) > F_AT_ONE_TOL:
        raise DivergenceError(f"k(0) = {float(k(0.0)):.3g}, must be 0")
    if np.min(np.diff(v)) < -CONVEXITY_TOL:
        raise DivergenceError("outer function k must be nondecreasing")


def check_convex_on_simplex(G: ScalarFunction, n: int) -> None:
    """Random midpoint convexity spot-check on the interior of the simplex,
    then `check_gradient`."""
    rng = np.random.default_rng(0)
    g = rng.exponential(size=(1000, 2, n))
    pts = g / g.sum(axis=2, keepdims=True)
    a, b = pts[:, 0, :], pts[:, 1, :]
    gap = 0.5 * (G(a) + G(b)) - G(0.5 * (a + b))
    check_finite(f"G {G.label!r}", gap)
    if np.min(gap) < -CONVEXITY_TOL:
        raise DivergenceError(
            f"generator fails midpoint convexity by {-np.min(gap):.3g}")
    check_gradient(G, n)


@functools.cache
def _gradient_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """1,000 random rows shrunk 10% toward the centre of the simplex, and as
    many directions V, differences of two random rows, so sum(v) = 0; drawn
    once per n (half the cost of a check) and read-only."""
    g = np.random.default_rng(0).exponential(size=(3, 1000, n))
    X = g / g.sum(axis=2, keepdims=True)
    P, V = 0.9 * X[0] + 0.1 / n, X[1] - X[2]
    P.flags.writeable = V.flags.writeable = False
    return P, V


def check_gradient(G: ScalarFunction, n: int) -> None:
    """Spot-check G's declared gradient against central differences along
    `_gradient_points(n)`: only the gradient's part tangent to the simplex
    enters a Bregman divergence, so a gradient shifted by a multiple of
    (1, ..., 1) passes."""
    P, V = _gradient_points(n)
    grad = G.deriv(P)
    fd = (G(P + GRADIENT_STEP * V) - G(P - GRADIENT_STEP * V)) / (2 * GRADIENT_STEP)
    check_finite(f"the gradient of G {G.label!r}", grad, fd)
    err = float(np.max(np.abs(row_sum(grad * V) - fd) / np.maximum(1.0, np.abs(fd))))
    if err > GRADIENT_TOL:
        raise DivergenceError(
            f"G {G.label!r} does not match its declared gradient: "
            f"relative error {err:.3g} against central differences")


# ---------------------------------------------------------------------------
# batch evaluation kernels: rows of shape (..., n) whose leading axes broadcast
# ---------------------------------------------------------------------------

def f_divergence_batch(f: ScalarFunction, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_i q_i f(p_i / q_i) over the last axis of the broadcast arguments,
    with the perspective convention where q_i = 0.

    Where p_i / q_i overflows at a tiny q_i > 0 (a subnormal one), the term
    is its limit p_i * lim f(x)/x, as at q_i = 0; when that limit is +inf
    the value is not known there, and DivergenceError is raised.
    """
    pos = Q > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # where q_i = 0 the ratio is p_i / 1, a value the mask then discards
        terms = np.where(pos, Q * np.asarray(f(P / np.where(pos, Q, 1.0))), 0.0)
    out = row_sum(terms)
    if not np.isfinite(out).all():
        # f is finite on [1, inf), so an infinite term with p_i > q_i > 0 is
        # an overflow of p_i / q_i or of f
        over = np.isinf(terms) & (P > Q)
        if np.any(over):
            if not np.isfinite(f.perspective_limit):
                raise DivergenceError(
                    f"q f(p/q) overflows at a tiny q > 0 for f = {f.label or 'f'}, "
                    "whose lim f(x)/x is +inf: the value is not known there")
            out = row_sum(np.where(over, P * f.perspective_limit, terms))
    # q_i = 0 < p_i contributes p_i * lim f(x)/x; rows without escaped mass
    # add 0, never 0 * lim (NaN when the limit is +inf)
    escaped = (~pos) & (P > 0)
    if np.any(escaped):
        extra = row_sum(np.where(escaped, P, 0.0))
        out = out + np.multiply(extra, f.perspective_limit,
                                out=np.zeros_like(extra), where=extra > 0)
    return out


def kl_type_batch(f: ScalarFunction, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_k p_k (f(q_k) - f(p_k)) over the last axis of the broadcast
    arguments; a coordinate with p_k = 0 adds 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return row_sum(np.where(P > 0, P * (np.asarray(f(Q)) - np.asarray(f(P))), 0.0))


def bregman_batch(G: ScalarFunction, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Bregman rows G(P) - G(Q) - <grad G(Q), P - Q>, faces included.

    A coordinate with p_i = q_i adds 0 even where the gradient is infinite;
    an infinite gradient with p_i != q_i makes the row +inf (Legendre-type
    convention of Banerjee et al., JMLR 2005).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        g = G.deriv(Q)
        inner = row_sum(np.where(P == Q, 0.0, g * (P - Q)))
    return G(P) - G(Q) - inner


# ---------------------------------------------------------------------------
# DivergenceSpec
# ---------------------------------------------------------------------------

FAMILIES = ("f_divergence", "bregman", "kl_type", "composed")


class DivergenceSpec:
    """A closed, immutable description of one divergence.

    evaluate(p, q) accepts Distribution objects or raw vectors.  The
    vectorised evaluate_batch(P, Q) is what the property checkers drive: it
    takes rows of shape (..., n) whose leading axes broadcast, such as two
    (m, n) stacks or P[:, None] against Q[None, :] for every pair, and gives
    one value per broadcast row.  Each family has one kernel, and
    evaluate_binary_pairs(U), every pair of binary distributions on a grid of
    first coordinates, only shapes its rows for evaluate_batch.
    """

    def __init__(self, family: str, label: str, *, f: ScalarFunction | None = None,
                 G: ScalarFunction | None = None,
                 base: "DivergenceSpec | None" = None,
                 outer: ScalarFunction | None = None,
                 n: int | None = None,
                 validate: bool = True):
        if family not in FAMILIES:
            raise DivergenceError(f"unknown family {family!r}")
        if family == "f_divergence" and f.perspective_limit is None:
            raise DivergenceError(
                f"{label!r}: an f-divergence generator must declare "
                "perspective_limit, lim f(x)/x as x -> inf")
        if family == "bregman" and G._deriv is None:
            raise DivergenceError(
                f"{label!r}: a Bregman generator must declare its gradient, deriv")
        self.family = family
        self.label = label
        self.f = f
        self.G = G
        self.base = base
        self.outer = outer
        self.n = n  # fixed alphabet size, or None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if self.family == "f_divergence":
            check_f_generator(self.f)
        elif self.family == "composed":
            check_outer(self.outer)
        elif self.family == "bregman":
            check_convex_on_simplex(self.G, self.n or 3)

    def evaluate_batch(self, P, Q) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        n = P.shape[-1]
        if Q.shape[-1] != n:
            raise DivergenceError(
                f"argument rows differ in size: {n} and {Q.shape[-1]}")
        try:
            np.broadcast_shapes(P.shape[:-1], Q.shape[:-1])
        except ValueError:
            raise DivergenceError(
                f"argument batches {P.shape[:-1]} and {Q.shape[:-1]} "
                "do not broadcast") from None
        if self.n is not None and n != self.n:
            raise DivergenceError(
                f"{self.label!r} is defined for alphabets of size {self.n}, got {n}")
        if self.family == "f_divergence":
            return f_divergence_batch(self.f, P, Q)
        if self.family == "kl_type":
            return kl_type_batch(self.f, P, Q)
        if self.family == "bregman":
            return bregman_batch(self.G, P, Q)
        if self.family == "composed":
            return np.asarray(self.outer(self.base.evaluate_batch(P, Q)))
        raise AssertionError(self.family)

    def evaluate_binary_pairs(self, U) -> np.ndarray:
        """D((u_i, 1-u_i); (u_j, 1-u_j)) for every pair i, j on the last axis
        of U, so shape (..., k) gives (..., k, k): evaluate_batch on the rows
        of the k points, broadcast against each other."""
        U = np.asarray(U, dtype=float)
        # the rows (u, 1 - u), stored coordinate-first so that broadcasts
        # run along k rather than along the 2 coordinates
        X = np.moveaxis(np.stack([U, 1.0 - U]), 0, -1)
        return self.evaluate_batch(X[..., :, None, :], X[..., None, :, :])

    def evaluate(self, p, q) -> float:
        if not isinstance(p, Distribution):
            p = Distribution(p)
        if not isinstance(q, Distribution):
            q = Distribution(q)
        return float(self.evaluate_batch(p.probs[None, :], q.probs[None, :])[0])

    def __repr__(self) -> str:
        return f"DivergenceSpec({self.family}, {self.label!r})"


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _xlogx(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = x * np.log(x)
    return np.where(x > 0, v, 0.0)


def negative_entropy() -> ScalarFunction:
    """sum_i p_i log p_i, defined on the whole simplex with 0 log 0 = 0."""
    return ScalarFunction(lambda P: row_sum(_xlogx(P)),
                          deriv=lambda Q: np.log(Q) + 1.0, label="negative_entropy")


def squared_norm_G(label: str = "squared_norm") -> ScalarFunction:
    return ScalarFunction(lambda P: row_sum(P * P), deriv=lambda Q: 2.0 * Q,
                          label=label)


def catalog(name: str) -> DivergenceSpec:
    """Named divergences: kl, tv, hellinger, chi2, brier, euclidean, tv_squared."""
    if name == "kl":
        f = ScalarFunction(_xlogx, deriv=lambda x: np.log(x) + 1.0,
                           label="x*log(x)", perspective_limit=np.inf)
        return DivergenceSpec("f_divergence", "kl", f=f)
    if name == "tv":
        f = ScalarFunction(lambda x: np.abs(x - 1.0), deriv=lambda x: np.sign(x - 1.0),
                           label="|x-1|", perspective_limit=1.0)
        return DivergenceSpec("f_divergence", "tv", f=f)
    if name == "hellinger":
        f = ScalarFunction(lambda x: (np.sqrt(x) - 1.0) ** 2,
                           deriv=lambda x: 1.0 - 1.0 / np.sqrt(x),
                           label="(sqrt(x)-1)^2", perspective_limit=1.0)
        return DivergenceSpec("f_divergence", "hellinger", f=f)
    if name == "chi2":
        f = ScalarFunction(lambda x: (x - 1.0) ** 2, deriv=lambda x: 2.0 * (x - 1.0),
                           label="(x-1)^2", perspective_limit=np.inf)
        return DivergenceSpec("f_divergence", "chi2", f=f)
    if name == "brier":
        return DivergenceSpec("bregman", "brier", G=squared_norm_G("p^2+(1-p)^2"), n=2)
    if name == "euclidean":
        return DivergenceSpec("bregman", "euclidean", G=squared_norm_G())
    if name == "tv_squared":
        return DivergenceSpec("composed", "tv_squared", base=catalog("tv"),
                              outer=OUTER_FUNCTIONS["square"]())
    raise DivergenceError(f"unknown catalog name {name!r}; "
                          f"known: {', '.join(CATALOG_NAMES)}")


OUTER_FUNCTIONS = {
    "square": lambda: ScalarFunction(lambda x: np.square(x), deriv=lambda x: 2.0 * x,
                                     label="x^2"),
}


def from_json_dict(doc: dict) -> DivergenceSpec:
    """Rebuild a spec from its JSON description.

    Accepted shapes: {"family": ..., "name": <catalog>} for catalog entries,
    {"family": "kl_type", "h": <h-spec>} for generated families, and
    {"family": "composed", "name": <catalog>, "outer": <outer name>}.
    """
    if not isinstance(doc, dict):
        raise DivergenceError(
            f"a divergence spec must be a JSON object, got {type(doc).__name__}")
    for key in ("family", "name", "h", "outer"):
        if key in doc and not isinstance(doc[key], str):
            raise DivergenceError(
                f"spec field {key!r} must be a string, got {json.dumps(doc[key])}")
    family = doc.get("family")
    if family == "kl_type" and "h" in doc:
        from .families import h_generator_from_spec, kl_type_from_h
        return kl_type_from_h(h_generator_from_spec(doc["h"]))
    name = doc.get("name")
    if name is None:
        raise DivergenceError(f"cannot rebuild divergence from {doc!r}")
    if family == "composed" and "outer" in doc:
        outer_name = doc["outer"]
        if outer_name not in OUTER_FUNCTIONS:
            raise DivergenceError(f"unknown outer function {outer_name!r}")
        base = catalog(name)
        label = "tv_squared" if (name, outer_name) == ("tv", "square") \
            else f"{outer_name}({name})"
        return DivergenceSpec("composed", label, base=base,
                              outer=OUTER_FUNCTIONS[outer_name]())
    spec = catalog(name)
    if family is not None and spec.family != family:
        raise DivergenceError(
            f"catalog entry {name!r} has family {spec.family!r}, not {family!r}")
    return spec


def resolve(text: str) -> DivergenceSpec:
    """A catalog name or a path to a JSON spec document."""
    if text in CATALOG_NAMES:
        return catalog(text)
    p = Path(text)
    if p.exists():
        return from_json_dict(json.loads(p.read_text()))
    raise DivergenceError(f"{text!r} is neither a catalog name nor a file")
