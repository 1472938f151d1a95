"""Probability vectors, row-stochastic channels, and sufficient transformations.

All indices are 0-based. Values are immutable after construction and every
operation is a pure function, so objects can be shared freely between workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

SUM_TOL = 1e-12
CLAMP_TOL = 1e-15
PROPORTIONAL_TOL = 1e-12


class SimplexError(ValueError):
    """Raised when a vector or matrix fails the simplex/stochastic invariants."""


# numpy adds up to this many terms one after another; from 8 on it sums
# pairwise and takes the minimum with vector lanes, so row_sum and row_min
# hand longer rows to numpy to keep its exact bits
_IN_ORDER_TERMS = 7


def row_sum(X: np.ndarray) -> np.ndarray:
    """X.sum(axis=-1), bit for bit, by adding whole columns in order.

    numpy reduces a last axis of 2-5 entries one row at a time, at a cost far
    above the arithmetic; column adds do the same additions in the same order.
    """
    X = np.asarray(X)
    n = X.shape[-1]
    if not 0 < n <= _IN_ORDER_TERMS:
        return X.sum(axis=-1)
    out = X[..., 0] + 0.0  # numpy's sum starts from +0.0, so -0.0 gives +0.0
    for j in range(1, n):
        out += X[..., j]
    return out


def row_min(X: np.ndarray) -> np.ndarray:
    """X.min(axis=-1) by taking the minimum of whole columns in order.

    Bit for bit, signed zeros included; a row with a NaN gives NaN, with the
    same bits unless a NaN with its sign bit set comes first in the row.
    """
    X = np.asarray(X)
    n = X.shape[-1]
    if not 0 < n <= _IN_ORDER_TERMS:
        return X.min(axis=-1)
    out = X[..., 0].copy()
    for j in range(1, n):
        np.minimum(out, X[..., j], out=out)
    return out


def _clamp_tiny_negatives(a: np.ndarray) -> np.ndarray:
    # values within CLAMP_TOL below 0 are arithmetic dust; snap them to exactly
    # 0 so boundary detection stays exact for downstream log handling
    a = np.where((a < 0) & (a > -CLAMP_TOL), 0.0, a)
    return a


@dataclass(frozen=True)
class Distribution:
    """A point of the probability simplex on an n-symbol alphabet, n >= 2."""

    probs: np.ndarray

    def __init__(self, probs) -> None:
        a = np.asarray(probs, dtype=float).copy()
        if a.ndim != 1 or a.size < 2:
            raise SimplexError(f"need a 1-D vector with n >= 2, got shape {a.shape}")
        a = _clamp_tiny_negatives(a)
        if np.any(a < 0):
            raise SimplexError(f"negative entry {a.min():.3g}")
        s = a.sum()
        if abs(s - 1.0) > SUM_TOL:
            raise SimplexError(f"entries sum to {s!r}, not 1 within {SUM_TOL}")
        a.setflags(write=False)
        object.__setattr__(self, "probs", a)

    @property
    def n(self) -> int:
        return self.probs.size

    @property
    def is_interior(self) -> bool:
        """True when every entry is strictly positive."""
        return bool(np.all(self.probs > 0))

    @classmethod
    def parse(cls, text: str) -> "Distribution":
        """Parse a comma-separated decimal list, e.g. "0.3,0.7"."""
        try:
            vals = [float(t) for t in text.split(",") if t.strip() != ""]
        except ValueError as e:
            raise SimplexError(f"cannot parse distribution {text!r}: {e}") from None
        return cls(vals)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(np.full(n, 1.0 / n))

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def __repr__(self) -> str:
        return f"Distribution({np.array2string(self.probs, separator=', ')})"


@dataclass(frozen=True)
class Channel:
    """A row-stochastic n x n matrix; entry [x, y] is the probability of y given x."""

    matrix: np.ndarray

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=float).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise SimplexError(f"need a square matrix with n >= 2, got shape {m.shape}")
        m = _clamp_tiny_negatives(m)
        if np.any(m < 0) or np.any(m > 1 + CLAMP_TOL):
            raise SimplexError("entries must lie in [0, 1]")
        m = np.minimum(m, 1.0)
        rows = m.sum(axis=1)
        bad = np.abs(rows - 1.0) > SUM_TOL
        if np.any(bad):
            raise SimplexError(f"row {int(np.argmax(bad))} sums to {rows[bad][0]!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def parse(cls, text: str) -> "Channel":
        """Parse row-major text, rows separated by ';', entries by ','."""
        rows = [r for r in text.split(";") if r.strip() != ""]
        try:
            m = [[float(t) for t in r.split(",")] for r in rows]
        except ValueError as e:
            raise SimplexError(f"cannot parse channel {text!r}: {e}") from None
        return cls(m)

    @classmethod
    def from_json(cls, doc: str | Sequence) -> "Channel":
        """Accept a JSON array-of-arrays, given as text or already decoded."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        return cls(doc)

    @classmethod
    def identity(cls, n: int) -> "Channel":
        return cls(np.eye(n))

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "Channel":
        """Deterministic channel sending symbol x to perm[x]."""
        perm = np.asarray(perm, dtype=int)
        n = perm.size
        if sorted(perm.tolist()) != list(range(n)):
            raise SimplexError(f"{perm.tolist()} is not a permutation")
        m = np.zeros((n, n))
        m[np.arange(n), perm] = 1.0
        return cls(m)

    def __repr__(self) -> str:
        return f"Channel({np.array2string(self.matrix, separator=', ')})"


def compose(first: Channel, then: Channel) -> Channel:
    """The channel equivalent to applying `first` and then `then`."""
    if first.n != then.n:
        raise SimplexError("channel sizes differ")
    return Channel(first.matrix @ then.matrix)


def push_forward(p: Distribution, ch: Channel) -> Distribution:
    """Marginal of the channel output when the input is distributed as p."""
    if p.n != ch.n:
        raise SimplexError(f"dimension mismatch: distribution n={p.n}, channel n={ch.n}")
    # no renormalization: permutation channels must permute exactly, and the
    # Distribution invariants (sum within 1e-12) absorb the rounding dust
    return Distribution(p.probs @ ch.matrix)


def binary_channel(alpha: float, beta: float) -> Channel:
    """2x2 channel with rows (alpha, 1-alpha) and (beta, 1-beta)."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise SimplexError(f"parameters must be in [0,1], got ({alpha}, {beta})")
    return Channel([[alpha, 1.0 - alpha], [beta, 1.0 - beta]])


def merge_transform(i: int, j: int, n: int) -> Channel:
    """Deterministic channel sending symbol j to symbol i, fixing the others.

    Pushing a distribution forward zeroes coordinate j and adds its mass to i.
    """
    if i == j:
        raise SimplexError("merge indices must differ")
    if not (0 <= i < n and 0 <= j < n):
        raise SimplexError(f"indices ({i}, {j}) out of range for n={n}")
    m = np.eye(n)
    m[j, j] = 0.0
    m[j, i] = 1.0
    return Channel(m)


def split_transform(i: int, j: int, t: float, n: int) -> Channel:
    """Stochastic channel sending symbol i to i with probability t, else to j."""
    if i == j:
        raise SimplexError("split indices must differ")
    if not (0 <= i < n and 0 <= j < n):
        raise SimplexError(f"indices ({i}, {j}) out of range for n={n}")
    if not (0.0 <= t <= 1.0):
        raise SimplexError(f"split fraction must be in [0,1], got {t}")
    m = np.eye(n)
    m[i, i] = t
    m[i, j] = 1.0 - t
    return Channel(m)


def proportional_pairs(p: Distribution, q: Distribution,
                       tol: float = PROPORTIONAL_TOL) -> list[tuple[int, int]]:
    """All index pairs (i, j), i < j, with p_i*q_j == p_j*q_i within tol.

    Exactly these merges are sufficient transformations for the pair (p, q).
    The cross-product form stays well defined when coordinates are zero.
    """
    if p.n != q.n:
        raise SimplexError("dimension mismatch")
    a, b = p.probs, q.probs
    cross = np.abs(np.outer(a, b) - np.outer(b, a))
    ii, jj = np.where(np.triu(cross <= tol, k=1))
    return list(zip(ii.tolist(), jj.tolist()))


VALID_SCENARIO_KINDS = ("permutation", "merge", "split")


@dataclass(frozen=True)
class SufficiencyScenario:
    """A pair of distributions plus a transformation that is sufficient for
    the binary index distinguishing them.

    For merges the merged pair (i, j) must be proportional between p and q;
    for splits the destination coordinate j must carry no mass in either, so
    the transformation is invertible from its output. Permutations qualify
    unconditionally.
    """

    p: Distribution
    q: Distribution
    transform: Channel
    kind: str
    i: int | None = field(default=None)
    j: int | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind not in VALID_SCENARIO_KINDS:
            raise SimplexError(f"unknown scenario kind {self.kind!r}")
        if self.p.n != self.q.n or self.p.n != self.transform.n:
            raise SimplexError("dimension mismatch in scenario")
        if self.kind == "merge":
            if self.i is None or self.j is None:
                raise SimplexError("merge scenario needs indices i, j")
            gap = abs(self.p[self.i] * self.q[self.j] - self.p[self.j] * self.q[self.i])
            if gap > PROPORTIONAL_TOL:
                raise SimplexError(
                    f"merged pair ({self.i}, {self.j}) not proportional: "
                    f"cross-product gap {gap:.3g}")
        if self.kind == "split":
            if self.i is None or self.j is None:
                raise SimplexError("split scenario needs indices i, j")
            if self.p[self.j] > 0 or self.q[self.j] > 0:
                raise SimplexError("split destination must carry no mass")

    def apply(self) -> tuple[Distribution, Distribution]:
        return push_forward(self.p, self.transform), push_forward(self.q, self.transform)
