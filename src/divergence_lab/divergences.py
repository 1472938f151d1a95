"""Divergence families on the probability simplex with a uniform evaluate API.

Three families are built in (plus a composed wrapper, k(D) for a
nondecreasing outer function k):

* f-divergences       sum_i q_i f(p_i / q_i), f convex with f(1) = 0
* Bregman divergences G(P) - G(Q) - <grad G(Q), P - Q>, G convex
* KL-type distances   sum_k p_k (f(q_k) - f(p_k))

Boundary conventions follow the usual perspective limits: a term with
q_i = 0 = p_i contributes 0, and a term with q_i = 0 < p_i contributes
p_i * lim_{x->inf} f(x)/x, a limit every f-divergence generator declares
(+inf when it diverges).  0*log(0) is 0.  A generator may also declare its
perspective, q f(p/q) as an elementwise function of (p, q) with these rules
built in; the catalog's kl, chi2, hellinger and tv do, and their terms are
that function, so kl and chi2 have values at a subnormal q_i too.  Without
one, the terms are q f(p/q) with the face rules built in, the same
function `check_perspective` holds a declared perspective to; where
p_i / q_i overflows at a subnormal q_i > 0 the term is the limit if it is
finite, and an infinite one leaves the value unknown and raises
DivergenceError.
Every generator is a ScalarFunction; a KL-type f is a quadrature table,
which `families` builds and evaluates.  A Bregman G declares its exact
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

from .simplex import Distribution, pair_rows, row_sum

CONVEXITY_TOL = 1e-10   # midpoint convexity slack for generator spot-checks
F_AT_ONE_TOL = 1e-12
# A declared lim f(x)/x is held to f's chord slopes s(x) = (f(x) - f(1)) /
# (x - 1) at FAR_POINTS, relative to the size of the slopes and the limit.
# Over the catalog a finite limit exceeds s(1e8) by at most 2.0e-4
# (hellinger; tv 0) and an infinite one leaves s rising by at least half of
# s(1e8) (kl 9.21 -> 18.42; chi2 1e4 -> 1e8), so LIMIT_SLACK sits 50 times
# inside both.
FAR_POINTS = np.array([1e4, 1e8])
LIMIT_SLACK = 1e-2
# a declared perspective is held to q f(p/q) on every pair of these
# coordinates: the faces, the smallest subnormal, a tiny normal q under which
# p/q stays finite, the interior and the top of [0, 1]
PERSPECTIVE_COORDS = np.array([0.0, 5e-324, 1e-300, 1e-8, 0.1, 0.25, 0.5, 0.7, 0.9,
                               1.0 - 2.0 ** -53, 1.0])
PERSPECTIVE_TOL = 1e-12
GRADIENT_STEP = 1e-5    # central-difference step of the gradient spot-check
GRADIENT_TOL = 1e-5     # its relative error bound

CATALOG_NAMES = ("kl", "tv", "hellinger", "chi2", "brier", "euclidean", "tv_squared")


class DivergenceError(ValueError):
    """Raised for invalid generators, domains, or evaluation preconditions."""


# ---------------------------------------------------------------------------
# generators and their spot-checks
# ---------------------------------------------------------------------------

class ScalarFunction:
    """A real function of numbers or of rows (..., n), with its derivative
    where something reads it: the one generator type of every family.

    An f, an outer k, a Shannon f or a binary g2 maps numbers to numbers.  A
    Bregman G maps rows of shape (..., n) to shape (...), finite on the
    whole closed simplex, and its `deriv` returns gradient rows of its
    argument's shape; on a face they may be +-inf (negative entropy), which
    `bregman_batch` resolves exactly.  The alphabet size is the spec's.
    `deriv` is declared where it is read: a Bregman G's gradient, a g2's
    slope and a KL-type table's exact f' (`families.build_f_from_h`, which
    also builds the table itself).

    `perspective_limit` is lim_{x -> inf} f(x)/x, which an f-divergence
    generator must declare; it is never estimated.  `perspective`, if
    given, is q f(p/q) as an elementwise function of arrays (P, Q) that
    broadcast, exact on the faces: 0 at p = q = 0 and p * lim f(x)/x at
    q = 0 < p.  It is run with floating-point warnings off, and
    `check_f_generator` holds it to q f(p/q) on a grid that reaches 0 and
    5e-324.  Without it, q f(p/q) at a subnormal q raises where p/q
    overflows and the limit is +inf.
    """

    def __init__(self, value: Callable, deriv: Callable | None = None,
                 label: str = "", perspective_limit: float | None = None,
                 perspective: Callable | None = None):
        self.label = label
        self._value = value
        self._deriv = deriv
        self.perspective_limit = perspective_limit
        self.perspective = perspective

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
    that its declared lim f(x)/x agrees with its chord slopes at FAR_POINTS:
    no less than the farther, within LIMIT_SLACK of it when finite, and with
    the slopes still rising when infinite.  No finite point tells a slowly
    unbounded f from a bounded one, so hellinger's f declared with an
    infinite limit passes: its slope still rises 2% from 1e4 to 1e8."""
    x = np.geomspace(0.01, 50.0, 200)
    mid = 0.5 * (x[:-1] + x[1:])
    gap = 0.5 * (f(x[:-1]) + f(x[1:])) - f(mid)
    check_finite(f"f {f.label!r}", f(1.0), gap)
    if abs(float(f(1.0))) > F_AT_ONE_TOL:
        raise DivergenceError(f"f(1) = {float(f(1.0)):.3g}, must be 0")
    if np.min(gap) < -CONVEXITY_TOL:
        raise DivergenceError(f"f fails midpoint convexity by {-np.min(gap):.3g}")
    # for convex f the chord slope rises toward the limit; an f that
    # overflows at a far point is still rising
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (np.asarray(f(FAR_POINTS)) - float(f(1.0))) / (FAR_POINTS - 1.0)
    near, far = np.where(np.isfinite(slope), slope, np.inf)
    limit = f.perspective_limit
    declares = f"f {f.label!r} declares lim f(x)/x = {limit:.3g}"
    if limit < far - CONVEXITY_TOL:
        raise DivergenceError(f"{declares}, below its chord slope {far:.3g} at x = 1e8")
    if np.isfinite(limit) and limit - far > LIMIT_SLACK * max(abs(limit), abs(near)):
        raise DivergenceError(f"{declares}, far above its chord slope {far:.3g} "
                              "at x = 1e8")
    if limit == np.inf > far and far - near <= LIMIT_SLACK * max(abs(near), abs(far)):
        raise DivergenceError(f"{declares}, but its chord slope has stopped rising: "
                              f"{near:.3g} at x = 1e4, {far:.3g} at x = 1e8")
    if f.perspective is not None:
        check_perspective(f)


def check_perspective(f: ScalarFunction) -> None:
    """Hold f's declared perspective to the reference `_perspective_terms`
    on every pair of PERSPECTIVE_COORDS: equal to it where it is 0 or +-inf
    on a face, p = 0 or q = 0, and within PERSPECTIVE_TOL * (p + q + |ref|)
    wherever else it is finite.  An infinite reference at p, q > 0 is an
    overflow of p/q or of f, not a value, and is skipped."""
    P, Q = np.meshgrid(PERSPECTIVE_COORDS, PERSPECTIVE_COORDS, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        got = np.asarray(f.perspective(P, Q), dtype=float)
        ref = _perspective_terms(f, P, Q)
        near = np.abs(got - ref) <= PERSPECTIVE_TOL * (P + Q + np.abs(ref))
    exact = ((P == 0) | (Q == 0)) & ((ref == 0) | np.isinf(ref))
    bad = np.where(exact, got != ref, np.isfinite(ref) & ~near)
    if np.any(bad):
        i = tuple(np.argwhere(bad)[0])
        raise DivergenceError(
            f"f {f.label!r} declares a perspective of {got[i]:.6g} at (p, q) = "
            f"({P[i]:.3g}, {Q[i]:.3g}), where q f(p/q) is {ref[i]:.6g}")


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

def _perspective_terms(f: ScalarFunction, P, Q) -> np.ndarray:
    """q f(p/q) elementwise, with the face rules: p * lim f(x)/x where
    q = 0 < p, and 0 at p = q = 0, never 0 * lim; call it with
    floating-point warnings off."""
    pos = Q > 0
    # where q = 0 the ratio is p / 1, a value the mask then discards
    return np.where(pos, Q * np.asarray(f(P / np.where(pos, Q, 1.0))),
                    np.where(P > 0, P * f.perspective_limit, 0.0))


def f_divergence_batch(f: ScalarFunction, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_i q_i f(p_i / q_i) over the last axis of the broadcast arguments,
    with the face rules of `_perspective_terms`.

    A generator that declares its perspective gives the terms itself.
    Otherwise the terms are `_perspective_terms`, and where p_i / q_i
    overflows at a tiny q_i > 0 (a subnormal one) the term is its limit
    p_i * lim f(x)/x, as at q_i = 0; when that limit is +inf the value is
    not known there, and DivergenceError is raised.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if f.perspective is not None:
            return row_sum(f.perspective(P, Q))
        terms = _perspective_terms(f, P, Q)
        # f is finite on [1, inf), so an infinite term with p_i > q_i > 0 is
        # an overflow of p_i / q_i or of f
        over = np.isinf(terms) & (P > Q) & (Q > 0)
        if np.any(over):
            if not np.isfinite(f.perspective_limit):
                raise DivergenceError(
                    f"q f(p/q) overflows at a tiny q > 0 for f = {f.label or 'f'}, "
                    "whose lim f(x)/x is +inf: the value is not known there")
            terms = np.where(over, P * f.perspective_limit, terms)
    return row_sum(terms)


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

# what each family reads: the arguments it needs, then what the first must
# declare (a limit or a gradient is declared, never estimated) and its name
FAMILIES = {
    "f_divergence": (("f",), "perspective_limit",
                     "perspective_limit, lim f(x)/x as x -> inf"),
    "bregman": (("G",), "_deriv", "its gradient, deriv"),
    "kl_type": (("f",), None, ""),
    "composed": (("base", "outer"), None, ""),
}


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
        needs, declared, what = FAMILIES[family]
        given = {"f": f, "G": G, "base": base, "outer": outer}
        missing = [name for name in needs if given[name] is None]
        if missing:
            raise DivergenceError(f"{label!r}: a spec of family {family!r} needs "
                                  f"{' and '.join(missing)}")
        if declared and getattr(given[needs[0]], declared) is None:
            raise DivergenceError(f"{label!r}: the generator {needs[0]} of family "
                                  f"{family!r} must declare {what}")
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
        of the k points from `pair_rows`, broadcast against each other."""
        return self.evaluate_batch(*pair_rows(U))

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


# The catalog's perspectives q f(p/q), exact on the faces; kl's and chi2's
# p = 0 rule also gives 0 at (0, 0), where log and division give NaN.  Each
# computes the expression in its docstring with the same bits, in place where
# that saves a pair-sized array: on a grid's broadcast pairs a fresh array
# costs more than the arithmetic that fills it.
def _kl_perspective(P, Q):
    """where(P > 0, P (log P - log Q), 0)"""
    T = np.log(P) - np.log(Q)
    T *= P
    np.copyto(T, 0.0, where=~(P > 0))
    return T


def _chi2_perspective(P, Q):
    """where(P > 0, D (D / Q), Q) with D = P - Q, and D D / Q where D / Q
    overflows at Q > 0 but the term does not (at Q = 0 < P it stays +inf,
    where D D can underflow to 0 and give 0 / 0)"""
    D = P - Q
    T = D / Q
    T *= D
    over = np.isinf(T)
    if over.any():
        np.divide(D * D, Q, out=T, where=over & (Q > 0))
    np.copyto(T, Q, where=~(P > 0))
    return T


def _hellinger_perspective(P, Q):
    """(sqrt(P) - sqrt(Q))^2"""
    T = np.sqrt(P) - np.sqrt(Q)
    T *= T
    return T


def _tv_perspective(P, Q):
    """|P - Q|"""
    T = P - Q
    np.abs(T, out=T)
    return T


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
        f = ScalarFunction(_xlogx, label="x*log(x)", perspective_limit=np.inf,
                           perspective=_kl_perspective)
        return DivergenceSpec("f_divergence", "kl", f=f)
    if name == "tv":
        f = ScalarFunction(lambda x: np.abs(x - 1.0), label="|x-1|",
                           perspective_limit=1.0, perspective=_tv_perspective)
        return DivergenceSpec("f_divergence", "tv", f=f)
    if name == "hellinger":
        f = ScalarFunction(lambda x: (np.sqrt(x) - 1.0) ** 2, label="(sqrt(x)-1)^2",
                           perspective_limit=1.0, perspective=_hellinger_perspective)
        return DivergenceSpec("f_divergence", "hellinger", f=f)
    if name == "chi2":
        f = ScalarFunction(lambda x: (x - 1.0) ** 2, label="(x-1)^2",
                           perspective_limit=np.inf, perspective=_chi2_perspective)
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
    "square": lambda: ScalarFunction(lambda x: np.square(x), label="x^2"),
}


# the spec documents from_json_dict accepts, picked by the field that sets
# their shape: the fields each holds, and the family it must name (a catalog
# entry's may be left out)
SPEC_SHAPES = {
    "h": (("family", "h"), "kl_type"),
    "outer": (("family", "name", "outer"), "composed"),
    "name": (("family", "name"), None),
}


def from_json_dict(doc: dict) -> DivergenceSpec:
    """Rebuild a spec from its JSON description.

    Accepted shapes: {"family": ..., "name": <catalog>} for catalog entries
    (family optional), {"family": "kl_type", "h": <h-spec>} for generated
    families, and {"family": "composed", "name": <catalog>, "outer": <outer
    name>}.  A field outside the document's shape is an error, never
    ignored.
    """
    if not isinstance(doc, dict):
        raise DivergenceError(
            f"a divergence spec must be a JSON object, got {type(doc).__name__}")
    shape = "h" if "h" in doc else "outer" if "outer" in doc else "name"
    fields, family = SPEC_SHAPES[shape]
    for key, value in doc.items():
        if key not in fields:
            raise DivergenceError(f"spec field {key!r} is not accepted in a spec "
                                  f"with {shape!r}, whose fields are {', '.join(fields)}")
        if not isinstance(value, str):
            raise DivergenceError(
                f"spec field {key!r} must be a string, got {json.dumps(value)}")
    if family is not None and doc.get("family") != family:
        raise DivergenceError(f"a spec with {shape!r} must have family {family!r}")
    if shape == "h":
        from .families import h_generator_from_spec, kl_type_from_h
        return kl_type_from_h(h_generator_from_spec(doc["h"]))
    name = doc.get("name")
    if name is None:
        raise DivergenceError(f"cannot rebuild divergence from {doc!r}")
    if shape == "outer":
        outer_name = doc["outer"]
        if outer_name not in OUTER_FUNCTIONS:
            raise DivergenceError(f"unknown outer function {outer_name!r}")
        base = catalog(name)
        label = "tv_squared" if (name, outer_name) == ("tv", "square") \
            else f"{outer_name}({name})"
        return DivergenceSpec("composed", label, base=base,
                              outer=OUTER_FUNCTIONS[outer_name]())
    spec = catalog(name)
    if "family" in doc and spec.family != doc["family"]:
        raise DivergenceError(
            f"catalog entry {name!r} has family {spec.family!r}, not {doc['family']!r}")
    return spec


def resolve(text: str) -> DivergenceSpec:
    """A catalog name or a path to a JSON spec document."""
    if text in CATALOG_NAMES:
        return catalog(text)
    p = Path(text)
    if p.exists():
        return from_json_dict(json.loads(p.read_text()))
    raise DivergenceError(f"{text!r} is neither a catalog name nor a file")
