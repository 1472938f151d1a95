"""Divergence families on the probability simplex with a uniform evaluate API.

Three families are built in (plus coordinatewise-decomposable and composed
wrappers):

* f-divergences       sum_i q_i f(p_i / q_i), f convex with f(1) = 0
* Bregman divergences G(P) - G(Q) - <grad G(Q), P - Q>, G convex
* KL-type distances   sum_k p_k (f(q_k) - f(p_k))

Boundary conventions follow the usual perspective limits: a term with
q_i = 0 = p_i contributes 0, and a term with q_i = 0 < p_i contributes
p_i * lim_{x->inf} f(x)/x (+inf when that limit diverges).  0*log(0) is 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from .simplex import Distribution, row_min, row_sum

FD_STEP = 1e-6          # central-difference step for numeric gradients
CONVEXITY_TOL = 1e-10   # midpoint convexity slack for generator spot-checks
F_AT_ONE_TOL = 1e-12
SMOOTHING_EPS = (1e-4, 1e-5, 1e-6)

CATALOG_NAMES = ("kl", "tv", "hellinger", "chi2", "brier", "euclidean", "tv_squared")


class DivergenceError(ValueError):
    """Raised for invalid generators, domains, or evaluation preconditions."""


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------

class ScalarFunction:
    """A univariate real function with a derivative evaluator.

    Either an analytic catalog entry (closed-form callables) or a quadrature
    table (strictly increasing knots, cubic interpolation between them, inputs
    clamped to the tabulated domain).
    """

    def __init__(self, value: Callable, deriv: Callable | None = None,
                 domain: tuple[float, float] = (0.0, np.inf),
                 kind: str = "analytic", label: str = "",
                 perspective_limit: float | None = None):
        self.kind = kind
        self.label = label
        self.domain = domain
        self._value = value
        self._deriv = deriv
        self._perspective_limit = perspective_limit

    @classmethod
    def from_table(cls, knots: np.ndarray, values: np.ndarray,
                   deriv: Callable | None = None, label: str = "",
                   deriv_values: np.ndarray | None = None) -> "ScalarFunction":
        """Tabulated function with cubic interpolation between knots.

        With `deriv_values` the interpolant is the piecewise cubic Hermite
        matching values and first derivatives at the knots; it is local, so a
        curvature jump placed exactly on a knot does not pollute the
        neighbouring intervals.
        """
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(np.diff(knots) <= 0):
            raise DivergenceError("table knots must be strictly increasing")
        if deriv_values is not None:
            spline = CubicHermiteSpline(knots, values, np.asarray(deriv_values,
                                                                  dtype=float))
        else:
            spline = CubicSpline(knots, values)
        lo, hi = float(knots[0]), float(knots[-1])

        def value(x, _s=spline, _lo=lo, _hi=hi):
            return _s(np.clip(x, _lo, _hi))

        fn = cls(value, deriv=deriv, domain=(lo, hi), kind="table", label=label)
        fn.knots = knots
        fn.knot_values = values
        return fn

    def __call__(self, x):
        return self._value(np.asarray(x, dtype=float))

    def deriv(self, x):
        if self._deriv is None:
            x = np.asarray(x, dtype=float)
            h = FD_STEP
            return (self._value(x + h) - self._value(x - h)) / (2 * h)
        return self._deriv(np.asarray(x, dtype=float))

    def perspective_limit(self) -> float:
        """lim_{x -> inf} f(x)/x, estimated from huge arguments when not given."""
        if self._perspective_limit is None:
            r1 = float(self._value(np.asarray(1e9)) / 1e9)
            r2 = float(self._value(np.asarray(1e12)) / 1e12)
            self._perspective_limit = r2 if abs(r2 - r1) <= 1e-6 * (1 + abs(r2)) else np.inf
        return self._perspective_limit


def check_f_generator(f: ScalarFunction, grid: int = 200) -> None:
    """Spot-check that f is convex on (0, inf) with f(1) = 0."""
    if abs(float(f(1.0))) > F_AT_ONE_TOL:
        raise DivergenceError(f"f(1) = {float(f(1.0)):.3g}, must be 0")
    x = np.geomspace(0.01, 50.0, grid)
    mid = 0.5 * (x[:-1] + x[1:])
    gap = 0.5 * (f(x[:-1]) + f(x[1:])) - f(mid)
    if np.min(gap) < -CONVEXITY_TOL:
        raise DivergenceError(f"f fails midpoint convexity by {-np.min(gap):.3g}")


def check_outer(k: ScalarFunction, grid: int = 200) -> None:
    """Spot-check that k is nondecreasing with k(0) = 0."""
    if abs(float(k(0.0))) > F_AT_ONE_TOL:
        raise DivergenceError(f"k(0) = {float(k(0.0)):.3g}, must be 0")
    x = np.linspace(0.0, 10.0, grid)
    v = np.asarray(k(x))
    if np.min(np.diff(v)) < -CONVEXITY_TOL:
        raise DivergenceError("outer function k must be nondecreasing")


# ---------------------------------------------------------------------------
# multivariate convex generators for Bregman divergences
# ---------------------------------------------------------------------------

class MultivariateConvexFunction:
    """Convex function on the simplex with a (possibly numeric) gradient.

    `value` takes arrays of shape (..., n) and returns shape (...).  When no
    analytic gradient is supplied, central finite differences with step
    FD_STEP are used; those require the argument to stay at least 2*FD_STEP
    away from the simplex boundary.
    """

    def __init__(self, value: Callable, grad: Callable | None = None,
                 label: str = "", n: int | None = None):
        self._value = value
        self._grad = grad
        self.label = label
        self.n = n  # fixed alphabet size, or None for any

    def value(self, P):
        return self._value(np.asarray(P, dtype=float))

    @property
    def has_analytic_grad(self) -> bool:
        return self._grad is not None

    def gradient(self, Q):
        """Gradient rows for Q of shape (..., n)."""
        Q = np.asarray(Q, dtype=float)
        if self._grad is not None:
            return self._grad(Q)
        if np.min(Q) < 2 * FD_STEP:
            raise DivergenceError(
                f"argument within {2 * FD_STEP:g} of the boundary; "
                "finite-difference gradient stencil does not fit")
        n = Q.shape[-1]
        g = np.empty_like(Q)
        for i in range(n):
            e = np.zeros(n)
            e[i] = FD_STEP
            g[..., i] = (self._value(Q + e) - self._value(Q - e)) / (2 * FD_STEP)
        return g


def check_convex_on_simplex(G: MultivariateConvexFunction, n: int,
                            trials: int = 1000, seed: int = 0) -> None:
    """Random midpoint convexity spot-check on the interior of the simplex."""
    rng = np.random.default_rng(seed)
    g = rng.exponential(size=(trials, 2, n))
    pts = g / g.sum(axis=2, keepdims=True)
    a, b = pts[:, 0, :], pts[:, 1, :]
    gap = 0.5 * (G.value(a) + G.value(b)) - G.value(0.5 * (a + b))
    if np.min(gap) < -CONVEXITY_TOL:
        raise DivergenceError(
            f"generator fails midpoint convexity by {-np.min(gap):.3g}")


# ---------------------------------------------------------------------------
# batch evaluation kernels (rows of shape (m, n))
# ---------------------------------------------------------------------------

def f_divergence_batch(f: ScalarFunction, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    pos = Q > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(P, Q, out=np.ones_like(P), where=pos)
        terms = np.where(pos, Q * np.asarray(f(ratio)), 0.0)
    out = row_sum(terms)
    # q_i = 0 < p_i contributes p_i * lim f(x)/x; rows without escaped mass
    # add 0, never 0 * lim (NaN when the limit is +inf)
    escaped = (~pos) & (P > 0)
    if np.any(escaped):
        extra = row_sum(np.where(escaped, P, 0.0))
        out = out + np.multiply(extra, f.perspective_limit(),
                                out=np.zeros_like(extra), where=extra > 0)
    return out


def kl_type_batch(f: ScalarFunction, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = np.asarray(f(Q)) - np.asarray(f(P))
        terms = np.where(P > 0, P * diff, 0.0)
    return row_sum(terms)


def _bregman_rows_direct(G: MultivariateConvexFunction, P, Q) -> np.ndarray:
    g = G.gradient(Q)
    return G.value(P) - G.value(Q) - row_sum(g * (P - Q))


def bregman_batch(G: MultivariateConvexFunction, P: np.ndarray,
                  Q: np.ndarray) -> np.ndarray:
    """Bregman rows; boundary Q rows go through the smoothing path."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    margin = 2 * FD_STEP if not G.has_analytic_grad else 0.0
    interior = row_min(Q) > margin
    out = np.empty(P.shape[0])
    if np.any(interior):
        out[interior] = _bregman_rows_direct(G, P[interior], Q[interior])
    if np.any(~interior):
        idx = np.where(~interior)[0]
        out[idx] = _bregman_smoothed(G, P[idx], Q[idx])
    return out


def _bregman_smoothed(G: MultivariateConvexFunction, P, Q) -> np.ndarray:
    """Evaluate at Q_eps = (1-eps) Q + eps * uniform and extrapolate to eps=0.

    Three epsilons plus quadratic (Richardson-style) extrapolation.  When the
    sequence does not contract the limit is divergent and the row is +inf.
    """
    n = Q.shape[-1]
    u = np.full(n, 1.0 / n)
    vals = []
    for eps in SMOOTHING_EPS:
        Qe = (1 - eps) * Q + eps * u
        vals.append(_bregman_rows_direct(G, P, Qe))
    v0, v1, v2 = vals
    d1, d2 = v1 - v0, v2 - v1
    diverging = np.abs(d2) > 0.5 * np.abs(d1) + 1e-12
    e = np.asarray(SMOOTHING_EPS)
    # Lagrange extrapolation of the three (eps, value) pairs to eps = 0
    L = [np.prod([e[m] / (e[m] - e[k]) for m in range(3) if m != k]) for k in range(3)]
    extrap = L[0] * v0 + L[1] * v1 + L[2] * v2
    return np.where(diverging, np.inf, extrap)


# ---------------------------------------------------------------------------
# DivergenceSpec
# ---------------------------------------------------------------------------

FAMILIES = ("f_divergence", "bregman", "kl_type", "decomposable", "composed")


class DivergenceSpec:
    """A closed, immutable description of one divergence.

    evaluate(p, q) accepts Distribution objects or raw vectors; the
    vectorised evaluate_batch(P, Q) takes row-stacked (m, n) arrays and is
    what the property checkers drive.
    """

    def __init__(self, family: str, label: str, *, f: ScalarFunction | None = None,
                 G: MultivariateConvexFunction | None = None,
                 delta: Callable | None = None,
                 base: "DivergenceSpec | None" = None,
                 outer: ScalarFunction | None = None,
                 n: int | None = None,
                 source: dict | None = None,
                 validate: bool = True):
        if family not in FAMILIES:
            raise DivergenceError(f"unknown family {family!r}")
        self.family = family
        self.label = label
        self.f = f
        self.G = G
        self.delta = delta
        self.base = base
        self.outer = outer
        self.n = n  # fixed alphabet size, or None
        self.source = source or {}
        if validate:
            self._validate()

    def _validate(self) -> None:
        if self.family == "f_divergence":
            check_f_generator(self.f)
        elif self.family == "composed":
            check_outer(self.outer)
        elif self.family == "bregman":
            check_convex_on_simplex(self.G, self.G.n or 3)

    def _check_n(self, n: int) -> None:
        if self.n is not None and n != self.n:
            raise DivergenceError(
                f"{self.label!r} is defined for alphabets of size {self.n}, got {n}")

    def evaluate_batch(self, P, Q) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        if P.shape != Q.shape:
            raise DivergenceError("argument batches differ in shape")
        self._check_n(P.shape[1])
        if self.family == "f_divergence":
            return f_divergence_batch(self.f, P, Q)
        if self.family == "kl_type":
            return kl_type_batch(self.f, P, Q)
        if self.family == "bregman":
            return bregman_batch(self.G, P, Q)
        if self.family == "decomposable":
            return row_sum(np.asarray(self.delta(P, Q)))
        if self.family == "composed":
            return np.asarray(self.outer(self.base.evaluate_batch(P, Q)))
        raise AssertionError(self.family)

    def evaluate(self, p, q) -> float:
        if not isinstance(p, Distribution):
            p = Distribution(p)
        if not isinstance(q, Distribution):
            q = Distribution(q)
        return float(self.evaluate_batch(p.probs[None, :], q.probs[None, :])[0])

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        if not self.source:
            raise DivergenceError(
                f"{self.label!r} was built programmatically and has no "
                "serializable description")
        return dict(self.source)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

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


def negative_entropy(n: int | None = None) -> MultivariateConvexFunction:
    """sum_i p_i log p_i, defined on the whole simplex with 0 log 0 = 0."""
    return MultivariateConvexFunction(
        value=lambda P: row_sum(_xlogx(P)),
        grad=lambda Q: np.log(Q) + 1.0,
        label="negative_entropy", n=n)


def squared_norm_G(n: int | None = None,
                   label: str = "squared_norm") -> MultivariateConvexFunction:
    return MultivariateConvexFunction(
        value=lambda P: row_sum(P * P),
        grad=lambda Q: 2.0 * Q,
        label=label, n=n)


def _make_catalog(name: str) -> DivergenceSpec:
    src = {"family": None, "name": name}
    if name == "kl":
        f = ScalarFunction(_xlogx, deriv=lambda x: np.log(x) + 1.0,
                           label="x*log(x)", perspective_limit=np.inf)
        src["family"] = "f_divergence"
        return DivergenceSpec("f_divergence", "kl", f=f, source=src)
    if name == "tv":
        f = ScalarFunction(lambda x: np.abs(x - 1.0), deriv=lambda x: np.sign(x - 1.0),
                           label="|x-1|", perspective_limit=1.0)
        src["family"] = "f_divergence"
        return DivergenceSpec("f_divergence", "tv", f=f, source=src)
    if name == "hellinger":
        f = ScalarFunction(lambda x: (np.sqrt(x) - 1.0) ** 2,
                           deriv=lambda x: 1.0 - 1.0 / np.sqrt(x),
                           label="(sqrt(x)-1)^2", perspective_limit=1.0)
        src["family"] = "f_divergence"
        return DivergenceSpec("f_divergence", "hellinger", f=f, source=src)
    if name == "chi2":
        f = ScalarFunction(lambda x: (x - 1.0) ** 2, deriv=lambda x: 2.0 * (x - 1.0),
                           label="(x-1)^2", perspective_limit=np.inf)
        src["family"] = "f_divergence"
        return DivergenceSpec("f_divergence", "chi2", f=f, source=src)
    if name == "brier":
        src["family"] = "bregman"
        return DivergenceSpec("bregman", "brier", G=squared_norm_G(2, "p^2+(1-p)^2"),
                              n=2, source=src)
    if name == "euclidean":
        src["family"] = "bregman"
        return DivergenceSpec("bregman", "euclidean", G=squared_norm_G(), source=src)
    if name == "tv_squared":
        base = _make_catalog("tv")
        outer = OUTER_FUNCTIONS["square"]()
        src["family"] = "composed"
        src["outer"] = "square"
        src["name"] = "tv"
        return DivergenceSpec("composed", "tv_squared", base=base, outer=outer,
                              source=src)
    raise DivergenceError(f"unknown catalog name {name!r}; "
                          f"known: {', '.join(CATALOG_NAMES)}")


def catalog(name: str) -> DivergenceSpec:
    """Named divergences: kl, tv, hellinger, chi2, brier, euclidean, tv_squared."""
    return _make_catalog(name)


OUTER_FUNCTIONS = {
    "square": lambda: ScalarFunction(lambda x: np.square(x), deriv=lambda x: 2.0 * x,
                                     label="x^2"),
    "identity": lambda: ScalarFunction(lambda x: np.asarray(x, dtype=float),
                                       deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                       label="x"),
}


def from_json_dict(doc: dict) -> DivergenceSpec:
    """Rebuild a spec from its JSON description.

    Accepted shapes: {"family": ..., "name": <catalog>} for catalog entries,
    {"family": "kl_type", "h": <h-spec>} for generated families, and
    {"family": "composed", "name": <catalog>, "outer": <outer name>}.
    """
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
                              outer=OUTER_FUNCTIONS[outer_name](), source=dict(doc))
    spec = catalog(name)
    if family is not None and spec.family != family:
        raise DivergenceError(
            f"catalog entry {name!r} has family {spec.family!r}, not {family!r}")
    return spec


def load(path) -> DivergenceSpec:
    return from_json_dict(json.loads(Path(path).read_text()))


def resolve(text: str) -> DivergenceSpec:
    """A catalog name or a path to a JSON spec document."""
    if text in CATALOG_NAMES:
        return catalog(text)
    p = Path(text)
    if p.exists():
        return load(p)
    raise DivergenceError(f"{text!r} is neither a catalog name nor a file")
