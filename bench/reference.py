"""Independent re-evaluation of reported violation witnesses.

Every witness the workloads can report is recomputed here from closed forms
in 50-digit mpmath arithmetic: the squared distance (euclidean), the
KL-type distance of the decreasing h, and the Shannon-type inequality for
f = x^2/2 - x.  Nothing in this module calls into divergence_lab, so a
kernel defect cannot confirm its own witness.  A witness of any other
divergence is reported as unconfirmed.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 50
# a reported value must match the reference to this relative precision
AGREE_REL = 1e-6
AGREE_ABS = 1e-9


def _f_decreasing(x):
    # f' = G(x)/x for h(x) = 1/2 - x, integrated in closed form on each half
    # of (0, 1) and anchored at f(1/2) = 0 (see families.build_f_from_h)
    if x <= 0:
        return mp.inf
    if x >= 1:
        return -mp.inf
    if x <= mp.mpf(1) / 2:
        return -x + mp.mpf(3) / 2 * mp.log(x) + 1 / (2 * x) - mp.mpf(1) / 2 \
            + mp.mpf(3) / 2 * mp.log(2)
    return x + mp.log(1 - x) / 2 - mp.mpf(1) / 2 + mp.log(2) / 2


def _kl_type_decreasing(P, Q):
    """sum_k p_k (f(q_k) - f(p_k)), terms with p_k = 0 dropped."""
    return mp.fsum(p * (_f_decreasing(q) - _f_decreasing(p))
                   for p, q in zip(P, Q) if p > 0)


# divergences keyed by their label, on lists of mpmath numbers
DIVERGENCES = {
    "euclidean": lambda P, Q: mp.fsum((p - q) ** 2 for p, q in zip(P, Q)),
    "kl_type[name:decreasing]": _kl_type_decreasing,
}

# scalar functions of the Shannon-type inequality, keyed by their label
SCALARS = {
    "x^2/2-x": lambda x: x * x / 2 - x,
}


def _vec(v):
    return [mp.mpf(float(x)) for x in v]


def _push(P, channel):
    return [mp.fsum(P[i] * channel[i][j] for i in range(len(P)))
            for j in range(len(channel[0]))]


def reference_pair(report: dict) -> tuple:
    """(value before, value after) of a report's witness, recomputed."""
    w = report["witness"]
    cfg = report["config"]
    P, Q = _vec(w["P"]), _vec(w["Q"])
    if report["property"] == "shannon_inequality":
        f = SCALARS[cfg["f"]]
        return (mp.fsum(p * f(p) for p in P),
                mp.fsum(p * f(q) for p, q in zip(P, Q)))
    d = DIVERGENCES[cfg["divergence"]]
    A = [_vec(row) for row in w["channel"]]
    return d(P, Q), d(_push(P, A), _push(Q, A))


def witness_confirmed(report: dict) -> tuple[bool, str]:
    """Whether a violation witness holds up outside the program.

    Confirmed means the recomputed gap exceeds the check's own tolerance and
    the reported before/after values agree with the recomputed ones.
    """
    with mp.workdps(DIGITS):
        return _confirm(report)


def _confirm(report: dict) -> tuple[bool, str]:
    try:
        before, after = reference_pair(report)
    except KeyError as e:
        return False, f"no reference evaluator for {e}"
    cfg = report["config"]
    if report["property"] == "dpi":
        gap = after - before
        tol = cfg["abs_tol"] + cfg["rel_tol"] * abs(before)
    elif report["property"] == "shannon_inequality":
        # violated when sum p f(p) exceeds sum p f(q)
        gap = before - after
        tol = cfg["abs_tol"] + cfg["rel_tol"] * abs(before)
    else:
        gap = abs(after - before)
        tol = cfg["tol"]
    if not (mp.isfinite(gap) and gap > tol):
        return False, f"recomputed gap {mp.nstr(gap, 8)} is within tolerance"
    w = report["witness"]
    for name, ref in (("value_before", before), ("value_after", after)):
        got = w[name]
        if not (isinstance(got, float) and mp.isfinite(ref)
                and abs(got - ref) <= AGREE_ABS + AGREE_REL * abs(ref)):
            return False, f"{name} {got!r} disagrees with {mp.nstr(ref, 12)}"
    return True, ""
