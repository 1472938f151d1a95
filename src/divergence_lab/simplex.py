"""Input validation: `Distribution` (a finite point of the simplex), `Channel`
(a finite row-stochastic matrix), `push_forward` and the merge and split
channels, plus the row helpers the checkers share.  The sufficient
transformations are the sufficiency checker's draws, not objects of this
module.  Indices are 0-based; values are immutable and every operation is
pure, so objects can be shared between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-12
CLAMP_TOL = 1e-15


class SimplexError(ValueError):
    """Raised when a vector or matrix fails the simplex/stochastic invariants."""


# numpy adds up to this many terms one after another; from 8 on it sums
# pairwise, so row_sum hands longer rows to numpy to keep its exact bits
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


def binary_rows(p) -> np.ndarray:
    """The binary distributions (p, 1 - p), one row per entry of p."""
    p = np.asarray(p, dtype=float).ravel()
    rows = np.empty((p.size, 2))
    rows[:, 0] = p
    np.subtract(1.0, p, out=rows[:, 1])
    return rows


def pair_rows(U) -> tuple[np.ndarray, np.ndarray]:
    """The rows (u_i, 1 - u_i) and (u_j, 1 - u_j) of every pair i, j on the
    last axis of U, as (..., k, 1, 2) and (..., 1, k, 2) views that broadcast
    to (..., k, k, 2).  The rows are stored coordinate-first, so that
    broadcasts run along the k points rather than along the 2 coordinates."""
    U = np.asarray(U, dtype=float)
    X = np.moveaxis(np.stack([U, 1.0 - U]), 0, -1)
    return X[..., :, None, :], X[..., None, :, :]


def interior_binary_points(grid: int) -> np.ndarray:
    """The interior grid points k / (grid + 1), k = 1..grid."""
    return np.linspace(1.0 / (grid + 1), grid / (grid + 1.0), grid)


def _clamp_tiny_negatives(a: np.ndarray) -> np.ndarray:
    # every comparison with NaN is False, so the range and sum checks that
    # follow would let it through
    if not np.all(np.isfinite(a)):
        raise SimplexError(f"non-finite entry {a[~np.isfinite(a)][0]}")
    # values within CLAMP_TOL below 0 are arithmetic dust; snap them to exactly
    # 0 so boundary detection stays exact for downstream log handling
    return np.where((a < 0) & (a > -CLAMP_TOL), 0.0, a)


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

    @classmethod
    def parse(cls, text: str) -> "Distribution":
        """Parse a comma-separated decimal list, e.g. "0.3,0.7"."""
        try:
            vals = [float(t) for t in text.split(",") if t.strip() != ""]
        except ValueError as e:
            raise SimplexError(f"cannot parse distribution {text!r}: {e}") from None
        return cls(vals)

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

    def __repr__(self) -> str:
        return f"Channel({np.array2string(self.matrix, separator=', ')})"


def push_forward(p: Distribution, ch: Channel) -> Distribution:
    """Marginal of the channel output when the input is distributed as p."""
    if p.n != ch.n:
        raise SimplexError(f"dimension mismatch: distribution n={p.n}, channel n={ch.n}")
    # no renormalization: permutation channels must permute exactly, and the
    # Distribution invariants (sum within 1e-12) absorb the rounding dust
    return Distribution(p.probs @ ch.matrix)


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
