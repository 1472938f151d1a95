"""Planted violations at the budgets `verify` gives its checks: which ones
the binary data-processing grid and the decomposability swap find, and which
they miss, held like a golden file.  A change that loses a found row fails
here; a change that finds a missed row updates the table on purpose."""

import numpy as np
import pytest

from divergence_lab.checkers import (DECOMPOSABLE_TOL, check_decomposable_binary,
                                     check_dpi)
from divergence_lab.divergences import DivergenceSpec, ScalarFunction
from divergence_lab.families import HGenerator, kl_type_from_h

FOUND, MISSED = "violation", "no_violation_found"


def dip(c, w):
    """The KL-type divergence of h(x) = 1 + x - 2w max(0, 1 - |x - c| / w):
    an increasing h with a dip of depth 2w and half-width w at c, so data
    processing fails, by less the narrower the dip."""
    gen = HGenerator(
        lambda x: 1.0 + x - 2.0 * w * np.maximum(0.0, 1.0 - np.abs(x - c) / w),
        label=f"dip[{c},{w}]", breakpoints=(c - w, c, c + w))
    return kl_type_from_h(gen, validate=False)


def cubic(eps):
    """The binary Bregman divergence of G(p, 1 - p) = p^2 + eps p^3.  Its swap
    difference is eps (p - q)^2 (2p + 4q - 3), nonzero for every eps > 0, so
    it is not decomposable."""
    G = ScalarFunction(
        lambda P: P[..., 0] ** 2 + eps * P[..., 0] ** 3,
        deriv=lambda Q: np.stack([2.0 * Q[..., 0] + 3.0 * eps * Q[..., 0] ** 2,
                                  np.zeros_like(Q[..., 0])], axis=-1),
        label=f"p^2+{eps}p^3")
    return DivergenceSpec("bregman", f"cubic[{eps}]", G=G, n=2)


# (c, w) -> verdict at q2's budget (grid 50, 10,000 random trials, seed 42):
# the rows on each side of each c's found/missed boundary.  The whole ladder,
# w = 0.1, 0.03, 0.01, 0.003, 0.001, is found down to w = 0.03 at c = 0.3 and
# to w = 0.01 at c = 0.05, and missed everywhere at c = 0.01
DPI_TABLE = {
    (0.3, 0.03): FOUND, (0.3, 0.01): MISSED,
    (0.05, 0.01): FOUND, (0.05, 0.003): MISSED,
    (0.01, 0.01): MISSED,
}


@pytest.mark.parametrize("c, w", list(DPI_TABLE))
def test_planted_dpi_dips(c, w):
    rep = check_dpi(dip(c, w), 2, grid=50, random_trials=10_000, seed=42)
    assert rep.verdict == DPI_TABLE[c, w]


# eps -> verdict at q3's grid of 200: the largest swap gap is 0.9704 eps, so
# it is found while that exceeds DECOMPOSABLE_TOL = 1e-10
DECOMPOSABLE_TABLE = {1e-3: FOUND, 1e-6: FOUND, 1e-9: FOUND, 1e-10: MISSED,
                      1e-11: MISSED}


@pytest.mark.parametrize("eps", list(DECOMPOSABLE_TABLE))
def test_planted_decomposability_gaps(eps):
    rep = check_decomposable_binary(cubic(eps), grid=200)
    assert rep.verdict == DECOMPOSABLE_TABLE[eps]
    assert rep.max_gap == pytest.approx(0.9704 * eps, rel=1e-3)
    assert (rep.max_gap > DECOMPOSABLE_TOL) == (rep.verdict == FOUND)
