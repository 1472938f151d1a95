import json
import math
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from divergence_lab import checkers, families
from divergence_lab.checkers import (DECOMPOSABLE_TOL, INCONCLUSIVE, NOT_A_PROOF,
                                     REFUTED, VIOLATION_SHOWN, CheckReport,
                                     _abs_delta, _binary_triple, _dpi_judge,
                                     _gap_tol, _grid_binary, _recheck, _reduce,
                                     _scan, _search, _witness,
                                     check_decomposable_binary,
                                     check_dpi, check_shannon_inequality,
                                     check_sufficiency, dpi_local_refine,
                                     evaluate_scenario, sample_channels,
                                     sample_simplex)
from divergence_lab.divergences import (DivergenceError, DivergenceSpec,
                                        ScalarFunction, catalog,
                                        negative_entropy, squared_norm_G)
from divergence_lab.simplex import (Channel, Distribution, binary_rows,
                                    merge_transform, push_forward, row_sum,
                                    split_transform)


def sample_channels_masked(rng, m, n):
    """The boolean-mask sampler that sample_channels replaces with strided
    slices, kept as the reference of its (W, S) contract: gather every 4th
    trial, raise it to the 8th power by three squarings and scatter it back,
    then every 8th trial becomes a deterministic map; S are the row sums."""
    W = rng.exponential(size=(m * n, n)).reshape(m, n, n)
    idx = np.arange(m)
    sharp = idx % 4 == 3
    if np.any(sharp):
        Ws = W[sharp]
        for _ in range(3):
            Ws = Ws * Ws
        W[sharp] = Ws
    det = idx % 8 == 5
    k = int(det.sum())
    if k:
        verts = rng.integers(0, n, size=(k, n))
        Wd = np.zeros((k, n, n))
        Wd[np.arange(k)[:, None], np.arange(n)[None, :], verts] = 1.0
        W[det] = Wd
    return W, W.sum(axis=2)


def sample_channels_pow(rng, m, n):
    """The sampler before the channels stayed unnormalised, kept as the
    reference of the channels they stand for: normalise every row, raise
    every 4th trial to the 8th power by `**` and normalise it again, then
    every 8th trial becomes a deterministic map."""
    A = sample_simplex(rng, m * n, n).reshape(m, n, n)
    sharp = A[3::4]
    sharp **= 8
    sharp /= row_sum(sharp)[..., None]
    det = A[5::8]
    if len(det):
        det[:] = 0.0
        np.put_along_axis(det, rng.integers(0, n, size=det.shape[:2])[..., None],
                          1.0, axis=-1)
    return A


def sample_simplex_divided(rng, m, n):
    """The sampler before it normalised in place, kept as the reference: an
    exponential draw of scale 1 divided into a second array."""
    g = rng.exponential(size=(m, n))
    return g / row_sum(g)[:, None]


class TestSamplers:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_simplex_matches_divided_reference(self, n):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        for m in (1, 9, 1000):
            P = sample_simplex(rng, m, n)
            assert P.tobytes() == sample_simplex_divided(ref_rng, m, n).tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_simplex_rows(self):
        rng = np.random.default_rng(0)
        P = sample_simplex(rng, 1000, 4)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P > 0)

    def test_channels_are_stochastic(self):
        rng = np.random.default_rng(0)
        W, S = sample_channels(rng, 64, 3)
        assert S.tobytes() == W.sum(axis=2).tobytes()
        A = W / S[..., None]
        assert np.allclose(A.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(A >= 0)
        # deterministic maps are present in the mix
        is_det = np.all((A == 0) | (A == 1), axis=(1, 2))
        assert is_det.any()

    @pytest.mark.parametrize("m, n, seed", [(1, 2, 0), (5, 3, 1), (6, 4, 2),
                                            (13, 5, 3), (64, 3, 4), (1003, 2, 5),
                                            (2021, 5, 6)])
    def test_channels_match_masked_reference(self, m, n, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        W, S = sample_channels(rng, m, n)
        W0, S0 = sample_channels_masked(ref_rng, m, n)
        assert W.tobytes() == W0.tobytes() and S.tobytes() == S0.tobytes()
        # both drew the same numbers, so the streams continue alike
        assert rng.uniform() == ref_rng.uniform()

    @pytest.mark.parametrize("m, n, seed", [(1, 2, 0), (6, 3, 1), (13, 4, 2),
                                            (20_000, 3, 3), (20_000, 5, 4)])
    def test_channels_are_the_pow_samplers(self, m, n, seed):
        """W / S are the channels of the sampler that normalised, sharpened
        by pow and normalised again: uniform rows to the bit, deterministic
        rows exactly, sharpened rows within rounding."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        W, S = sample_channels(rng, m, n)
        A = sample_channels_pow(ref_rng, m, n)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        idx = np.arange(m)
        sharp, det = idx % 4 == 3, idx % 8 == 5
        uniform = ~sharp & ~det
        assert (W[uniform] / S[uniform][..., None]).tobytes() == A[uniform].tobytes()
        assert np.all(S[det] == 1.0)
        assert np.all((W[det] == 0.0) | (W[det] == 1.0))
        assert W[det].tobytes() == A[det].tobytes()
        assert np.max(np.abs(W / S[..., None] - A)) <= 1e-15


class TestCheckDPI:
    def test_kl_binary_grid_clean(self):
        rep = check_dpi(catalog("kl"), 2, grid=25, random_trials=20_000, seed=42)
        assert rep.verdict == "no_violation_found"
        assert rep.trials == 25 ** 4 + 20_000

    def test_euclidean_n3_violation_found(self):
        rep = check_dpi(catalog("euclidean"), 3, random_trials=50_000, seed=42)
        assert rep.verdict == "violation"
        assert rep.note == VIOLATION_SHOWN
        w = rep.witness
        assert w is not None and w["gap"] > 1e-9
        # soundness: the witness re-evaluates to the reported values
        p = Distribution(w["P"])
        q = Distribution(w["Q"])
        ch = Channel(w["channel"])
        d = catalog("euclidean")
        before = d.evaluate(p, q)
        after = d.evaluate(push_forward(p, ch), push_forward(q, ch))
        assert before == pytest.approx(w["value_before"], rel=1e-9)
        assert after == pytest.approx(w["value_after"], rel=1e-9)
        assert after - before > 1e-9 + 1e-7 * abs(before)

    def test_euclidean_n5_witness_matches_closed_form(self):
        # witnesses with zero coordinates in Q once came back as gap +inf
        rep = check_dpi(catalog("euclidean"), 5, random_trials=100_000, seed=42)
        assert rep.verdict == "violation" and np.isfinite(rep.max_gap)
        w = rep.witness
        P, Q, A = np.array(w["P"]), np.array(w["Q"]), np.array(w["channel"])
        exact = math.fsum((P @ A - Q @ A) ** 2) - math.fsum((P - Q) ** 2)
        assert abs(w["gap"] - exact) <= 1e-12

    def test_named_merge_witness_arithmetic(self):
        # squared distance: 0.06 before the merge, 0.08 after it
        d = catalog("euclidean")
        p = Distribution([0.2, 0.2, 0.6])
        q = Distribution([0.1, 0.1, 0.8])
        ch = merge_transform(0, 1, 3)
        before = d.evaluate(p, q)
        after = d.evaluate(push_forward(p, ch), push_forward(q, ch))
        assert before == pytest.approx(0.06, abs=1e-12)
        assert after == pytest.approx(0.08, abs=1e-12)

    def test_determinism(self):
        a = check_dpi(catalog("euclidean"), 3, random_trials=20_000, seed=7)
        b = check_dpi(catalog("euclidean"), 3, random_trials=20_000, seed=7)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
        c = check_dpi(catalog("euclidean"), 3, random_trials=20_000, seed=8)
        assert json.dumps(a.to_json_dict()) != json.dumps(c.to_json_dict())

    def test_report_shape(self):
        rep = check_dpi(catalog("tv"), 2, grid=10, random_trials=1000, seed=1)
        doc = rep.to_json_dict()
        assert list(doc.keys()) == ["schema", "property", "verdict", "trials",
                                    "max_gap", "witness", "failures", "config",
                                    "note"]
        assert doc["schema"] == "divergence-lab/1"
        assert "not a proof" in doc["note"]


def _project_simplex_1d(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def refine_loop(d, witness, iters=200, fd_step=1e-5):
    """The single-row coordinate ascent that dpi_local_refine batches, kept as
    the reference: one evaluate_batch call per point and per side."""
    P0, Q0, A0 = (np.asarray(x, dtype=float) for x in witness)
    n = P0.size

    def gap_of(P, Q, A):
        PY = P @ A
        QY = Q @ A
        before = float(d.evaluate_batch(P[None, :], Q[None, :])[0])
        after = float(d.evaluate_batch(PY[None, :] / PY.sum(), QY[None, :] / QY.sum())[0])
        return after - before, before, after

    blocks = [("P",), ("Q",)] + [("A", r) for r in range(n)]
    state = {"P": P0.copy(), "Q": Q0.copy(), "A": A0.copy()}
    best_gap, vb, va = gap_of(state["P"], state["Q"], state["A"])
    if not np.isfinite(best_gap):
        return P0, Q0, A0, vb, va

    def with_block(block, vec):
        sub = dict(state)
        sub["A"] = state["A"].copy()
        if block[0] == "A":
            sub["A"][block[1]] = vec
        else:
            sub[block[0]] = vec
        return sub["P"], sub["Q"], sub["A"]

    for _ in range(iters):
        improved = 0.0
        for block in blocks:
            vec = state["A"][block[1]] if block[0] == "A" else state[block[0]]
            g = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = fd_step
                up, _, _ = gap_of(*with_block(block, _project_simplex_1d(vec + e)))
                dn, _, _ = gap_of(*with_block(block, _project_simplex_1d(vec - e)))
                g[i] = (up - dn) / (2 * fd_step)
            step = 0.05
            for _ in range(12):
                trial = _project_simplex_1d(vec + step * g)
                cand, cb, ca = gap_of(*with_block(block, trial))
                if cand > best_gap:
                    improved += cand - best_gap
                    best_gap, vb, va = cand, cb, ca
                    if block[0] == "A":
                        state["A"][block[1]] = trial
                    else:
                        state[block[0]] = trial
                    break
                step *= 0.5
        if improved < 1e-12:
            break
    return state["P"], state["Q"], state["A"], vb, va


class CountingSpec:
    """Forwards evaluate_batch to a spec and counts the calls."""

    def __init__(self, d):
        self.d = d
        self.calls = 0

    def evaluate_batch(self, P, Q):
        self.calls += 1
        return self.d.evaluate_batch(P, Q)


def _random_triples(n, count, seed):
    rng = np.random.default_rng(seed)
    P = sample_simplex(rng, count, n)
    Q = sample_simplex(rng, count, n)
    W, S = sample_channels(rng, count, n)
    A = W / S[..., None]
    return [(P[k], Q[k], A[k]) for k in range(count)]


def _assert_refines_like_loop(d, witness, iters):
    P, Q, A, before, after = dpi_local_refine(d, witness, iters=iters)
    P0, Q0, A0, before0, after0 = refine_loop(d, witness, iters=iters)
    assert np.array_equal(P, P0)
    assert np.array_equal(Q, Q0)
    assert np.array_equal(A, A0)
    assert before == before0
    assert after == after0


class TestLocalRefine:
    def test_matches_loop_on_merge_witness(self):
        witness = (np.array([0.2, 0.2, 0.6]), np.array([0.1, 0.1, 0.8]),
                   merge_transform(0, 1, 3).matrix)
        _assert_refines_like_loop(catalog("euclidean"), witness, iters=60)

    def test_matches_loop_on_decreasing_family(self):
        gen = families.HGenerator(families.H_CATALOG["decreasing"][0],
                                  label="name:decreasing")
        witness = (np.array([0.3, 0.7]), np.array([0.6, 0.4]),
                   np.array([[0.9, 0.1], [0.2, 0.8]]))
        _assert_refines_like_loop(families.kl_type_from_h(gen, validate=False),
                                  witness, iters=40)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_loop_on_random_triples(self, n):
        for name in ("euclidean", "hellinger"):
            for witness in _random_triples(n, 3, seed=100 + n):
                _assert_refines_like_loop(catalog(name), witness, iters=15)

    def test_nonfinite_differences_do_not_stop_refinement(self):
        # chi2 is infinite where a channel output loses mass, so some central
        # differences are inf - inf; those rows are skipped, not fatal
        for witness in _random_triples(4, 3, seed=104):
            d = catalog("chi2")
            start = d.evaluate_batch(np.vstack([witness[0] @ witness[2], witness[0]]),
                                     np.vstack([witness[1] @ witness[2], witness[1]]))
            P, Q, A, before, after = dpi_local_refine(d, witness, iters=15)
            assert np.isfinite(after - before)
            assert after - before >= start[0] - start[1]

    def test_two_evaluate_batch_calls_per_block(self):
        witness = (np.array([0.2, 0.2, 0.6]), np.array([0.1, 0.1, 0.8]),
                   merge_transform(0, 1, 3).matrix)
        for iters in (1, 5):
            d = CountingSpec(catalog("euclidean"))
            dpi_local_refine(d, witness, iters=iters)
            assert 1 < d.calls <= 2 * (3 + 2) * iters + 1

    def test_never_decreases_gap(self):
        d = catalog("euclidean")
        P = np.array([0.2, 0.2, 0.6])
        Q = np.array([0.1, 0.1, 0.8])
        A = merge_transform(0, 1, 3).matrix
        P2, Q2, A2, before, after = dpi_local_refine(d, (P, Q, A), iters=30)
        assert after - before >= 0.02 - 1e-12

    def test_clean_input_unchanged(self):
        d = catalog("kl")
        P = np.array([0.3, 0.7])
        Q = np.array([0.6, 0.4])
        A = np.array([[0.8, 0.2], [0.1, 0.9]])
        _, _, _, before, after = dpi_local_refine(d, (P, Q, A), iters=10)
        assert after <= before + 1e-12


class TestSufficiency:
    def test_kl_invariant(self):
        for n in (2, 3, 4, 5):
            rep = check_sufficiency(catalog("kl"), n, trials=2000, seed=42)
            assert rep.verdict == "no_violation_found"
            assert rep.max_gap <= 1e-9

    def test_proportional_merge_values(self):
        # both sides equal 0.4 ln 2 + 0.6 ln(3/4)
        want = 0.4 * np.log(2.0) + 0.6 * np.log(0.75)
        before, after = evaluate_scenario(catalog("kl"), [0.2, 0.2, 0.6],
                                          [0.1, 0.1, 0.8],
                                          merge_transform(0, 1, 3).matrix)
        assert before == pytest.approx(want, abs=1e-12)
        assert after == pytest.approx(want, abs=1e-12)

    def test_euclidean_violation(self):
        rep = check_sufficiency(catalog("euclidean"), 3, trials=2000, seed=42)
        assert rep.verdict == "violation"
        assert rep.note == VIOLATION_SHOWN
        assert rep.witness["kind"] in ("merge", "split")
        assert rep.max_gap > 1e-9

    def test_named_witness_delta(self):
        before, after = evaluate_scenario(catalog("euclidean"), [0.2, 0.2, 0.6],
                                          [0.1, 0.1, 0.8],
                                          merge_transform(0, 1, 3).matrix)
        assert after - before == pytest.approx(0.02, abs=1e-12)

    def test_binary_permutations_exact_for_decomposable(self):
        rep = check_sufficiency(catalog("tv_squared"), 2, trials=500, seed=3)
        assert rep.max_gap <= 1e-12

    def test_determinism(self):
        a = check_sufficiency(catalog("kl"), 4, trials=1000, seed=5)
        b = check_sufficiency(catalog("kl"), 4, trials=1000, seed=5)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    @pytest.mark.parametrize("trials, kinds", [(1, "permutation"), (2, "permutation"),
                                               (3, "permutation,merge,split"),
                                               (7, "permutation,merge,split")])
    def test_kinds_are_those_that_ran(self, trials, kinds):
        # below 3 trials at n >= 3 every trial is a permutation
        rep = check_sufficiency(catalog("kl"), 3, trials=trials, seed=42)
        assert rep.config["kinds"] == kinds and rep.trials == trials


def assert_sufficient(p, q, A, kind):
    """(P, Q, channel A) is a sufficient transformation of its kind: a
    permutation is a 0/1 matrix with unit column sums, a merge joins a pair
    proportional between P and Q, and a split sends mass to a symbol empty in
    both."""
    n = len(p)
    if kind == "permutation":
        assert np.isin(A, (0.0, 1.0)).all() and np.array_equal(A.sum(axis=0), np.ones(n))
        return
    # the one symbol the channel moves (j of a merge, i of a split) and the
    # other symbol of its row
    (r,) = np.flatnonzero(np.diag(A) != 1.0)
    (c,) = np.flatnonzero((A[r] > 0) & (np.arange(n) != r))
    if kind == "merge":
        assert abs(p[c] * q[r] - p[r] * q[c]) <= 1e-12
    else:
        assert kind == "split" and p[c] == 0.0 and q[c] == 0.0


SUFFICIENT_DRAWS = [(2, "permutation")] + [(n, kind) for n in (3, 4, 5)
                                           for kind in ("permutation", "merge", "split")]


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("n, kind", SUFFICIENT_DRAWS)
def test_sufficiency_draws_are_sufficient_scenarios(n, kind, seed):
    """Every row of a sufficiency draw and its witness channel are a
    sufficient transformation of its kind, and the channel maps the row
    before to the row after."""
    rng = np.random.default_rng(seed)
    m = 200
    blocks = (checkers._draw_permutation(rng, m, n) if kind == "permutation"
              else checkers._draw_merge_split(rng, m, n, kind))
    (P, Q, PT, QT, point_of), = blocks
    for k in range(m):
        p, q, A, got = point_of(k)
        assert got == kind
        assert p.tobytes() == P[k].tobytes() and q.tobytes() == Q[k].tobytes()
        assert_sufficient(p, q, A, kind)
        # a merge adds t b and (1 - t) b back up, which may round off b's last bit
        for before, after in ((p, PT[k]), (q, QT[k])):
            assert np.allclose(push_forward(Distribution(before), Channel(A)).probs,
                               after, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_permutation_trials_swap_two_symbols(n):
    # a transposition: never the identity, at n = 2 always the swap
    (P, Q, PT, QT, _), = checkers._draw_permutation(np.random.default_rng(42), 1000, n)
    for before, after in ((P, PT), (Q, QT)):
        assert (np.count_nonzero(before != after, axis=1) == 2).all()
        assert np.array_equal(np.sort(before, axis=1), np.sort(after, axis=1))
    if n == 2:
        assert np.array_equal(PT, P[:, ::-1]) and np.array_equal(QT, Q[:, ::-1])


def lopsided():
    """The binary Bregman divergence of G(P) = p_0^3, not swap symmetric:
    D((p,1-p);(q,1-q)) = (p-q)^2 (p+2q), and its swap is (p-q)^2 (3-p-2q)."""
    G = ScalarFunction(
        lambda P: P[..., 0] ** 3,
        deriv=lambda Q: np.stack([3.0 * Q[..., 0] ** 2, np.zeros_like(Q[..., 0])],
                                 axis=-1),
        label="p0^3")
    return DivergenceSpec("bregman", "lopsided", G=G, n=2)


def _row_grid(grid):
    x = np.linspace(1.0 / (grid + 1), grid / (grid + 1.0), grid)
    P, Q = np.meshgrid(x, x, indexing="ij")
    return P.ravel(), Q.ravel()


def dpi_scan_rows(d, grid):
    """The per-beta evaluate_batch scan that the pair rows of _grid_binary replace,
    kept as the reference: one explicit row per (alpha, p, q)."""
    Pf, Qf = _row_grid(grid)
    ab = np.linspace(0.0, 1.0, grid)
    before = d.evaluate_batch(binary_rows(Pf), binary_rows(Qf))
    tol = _gap_tol(before)
    best = (-np.inf, -np.inf, None)
    failures = 0
    for beta in ab:
        pt = Pf[None, :] * ab[:, None] + beta * (1.0 - Pf[None, :])
        qt = Qf[None, :] * ab[:, None] + beta * (1.0 - Qf[None, :])
        after = d.evaluate_batch(binary_rows(pt), binary_rows(qt)).reshape(grid, -1)
        k, margin, gap, fail = _reduce(after - before[None, :], tol[None, :])
        failures += fail
        if margin > best[0]:
            ia, ipq = np.unravel_index(k, after.shape)
            best = (margin, gap, _binary_triple(Pf[ipq], Qf[ipq], ab[ia], beta))
    return (*best, failures)


def decomposable_rows(d, grid=200):
    """check_decomposable_binary on explicit rows through evaluate_batch."""
    config = {"grid": grid, "tol": DECOMPOSABLE_TOL, "divergence": d.label}
    Pf, Qf = _row_grid(grid)

    def recheck(d, k):
        # the flagged pair (row 0) and its swap (row 1), with the swap channel
        p, q = Pf[k], Qf[k]
        before, after = d.evaluate_batch([[p, 1.0 - p], [1.0 - p, p]],
                                         [[q, 1.0 - q], [1.0 - q, q]])
        return _witness([p, 1.0 - p], [q, 1.0 - q], [[0.0, 1.0], [1.0, 0.0]],
                        before, after, after - before)

    def judge(before, after):
        return _abs_delta(before, after), DECOMPOSABLE_TOL
    block = (binary_rows(Pf), binary_rows(Qf), binary_rows(1.0 - Pf),
             binary_rows(1.0 - Qf), lambda k: (k,))
    return _search("decomposability", grid * grid, config, [block], judge, d,
                   recheck=recheck)


def kl_type_family(name):
    gen = families.h_generator_from_spec(f"name:{name}")
    return families.kl_type_from_h(gen, validate=False)


@pytest.mark.parametrize("name", ["square", "ramp", "decreasing"])
def test_binary_grid_scan_matches_rows(name):
    d = kl_type_family(name)
    ab = np.linspace(0.0, 1.0, 30)
    margin, gap, triple, failures = _scan(d.evaluate_batch, _dpi_judge,
                                          _grid_binary(30, ab, ab))
    margin0, gap0, triple0, failures0 = dpi_scan_rows(d, 30)
    assert (margin, gap, failures) == (margin0, gap0, failures0)
    for got, want in zip(triple, triple0):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["square", "ramp", "decreasing", "lopsided"])
def test_decomposable_matches_rows(name):
    d = lopsided() if name == "lopsided" else kl_type_family(name)
    grid = 100 if name == "lopsided" else 200
    assert (check_decomposable_binary(d, grid=grid).to_json_dict()
            == decomposable_rows(d, grid).to_json_dict())


class TestDecomposable:
    def test_tv_squared_symmetric(self):
        rep = check_decomposable_binary(catalog("tv_squared"), grid=200)
        assert rep.verdict == "no_violation_found"

    def test_catalog_f_divergences_symmetric(self):
        for name in ("kl", "tv", "hellinger", "chi2"):
            rep = check_decomposable_binary(catalog(name), grid=50)
            assert rep.verdict == "no_violation_found"

    def test_asymmetric_divergence_flagged(self):
        rep = check_decomposable_binary(lopsided(), grid=100)
        assert rep.verdict == "violation"
        assert rep.note == VIOLATION_SHOWN
        # at (p,q)=(0.3,0.5): 0.04*1.3 vs 0.04*1.7; the gap is signed
        w = rep.witness
        assert abs(w["gap"]) > 0.001

    def test_report_includes_witness_values(self):
        rep = check_decomposable_binary(lopsided(), grid=100)
        p, q = rep.witness["P"][0], rep.witness["Q"][0]
        assert rep.witness["value_before"] == pytest.approx(
            (p - q) ** 2 * (p + 2 * q), abs=1e-12)
        assert rep.witness["value_after"] == pytest.approx(
            (p - q) ** 2 * (3 - p - 2 * q), abs=1e-12)


WITNESS_CASES = {
    "dpi": lambda: (catalog("euclidean"), check_dpi(catalog("euclidean"), 3)),
    "sufficiency": lambda: (catalog("euclidean"),
                            check_sufficiency(catalog("euclidean"), 3)),
    "decomposability": lambda: (lopsided(),
                                check_decomposable_binary(lopsided(), grid=100)),
}


@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_witness_reproduces_its_values(case):
    """Every divergence witness is a (P, Q, channel) triple: evaluating it
    through push_forward gives its values exactly, and its gap is signed."""
    d, rep = WITNESS_CASES[case]()
    assert rep.verdict == "violation"
    w = rep.witness
    p, q, ch = Distribution(w["P"]), Distribution(w["Q"]), Channel(w["channel"])
    assert d.evaluate(p, q) == w["value_before"]
    assert d.evaluate(push_forward(p, ch), push_forward(q, ch)) == w["value_after"]
    assert w["gap"] == w["value_after"] - w["value_before"]


class TestShannon:
    def test_clog_passes_all_sizes(self):
        f = ScalarFunction(lambda x: -2.0 * np.log(x) + 0.1,
                           deriv=lambda x: -2.0 / np.asarray(x, dtype=float))
        for n in (2, 3, 4):
            rep = check_shannon_inequality(f, n, trials=30_000, seed=42)
            assert rep.verdict == "no_violation_found"

    def test_quadratic_passes_binary_fails_ternary(self):
        f = ScalarFunction(lambda x: 0.5 * np.square(x) - np.asarray(x, dtype=float))
        rep2 = check_shannon_inequality(f, 2, trials=30_000, seed=42)
        assert rep2.verdict == "no_violation_found"
        rep3 = check_shannon_inequality(f, 3, trials=30_000, seed=42)
        assert rep3.verdict == "violation"
        assert rep3.note == VIOLATION_SHOWN
        # witness re-evaluates: sum p f(p) > sum p f(q)
        w = rep3.witness
        p = np.array(w["P"])
        q = np.array(w["Q"])
        lhs = float(np.sum(p * (0.5 * p ** 2 - p)))
        rhs = float(np.sum(p * (0.5 * q ** 2 - q)))
        assert lhs - rhs > 1e-9

    def test_infinite_gap_against_infinite_tolerance_is_a_failure(self):
        # where f is +inf, gap and tolerance are both inf: the NaN margin is a
        # failed evaluation and must not hide the finite violations elsewhere
        f = ScalarFunction(lambda x: np.where(np.asarray(x) > 0.95, np.inf,
                                              0.5 * np.square(x) - np.asarray(x)))
        rep = check_shannon_inequality(f, 3, trials=30_000, seed=42)
        assert rep.verdict == "violation" and rep.failures > 0
        assert 0.0 < rep.max_gap < np.inf

    def test_infinite_minus_infinite_gap_is_a_failure(self):
        # above 1/2, f is +inf, so every binary pair has inf on both sides: each
        # gap is inf - inf, a failed evaluation, counted without a warning
        f = ScalarFunction(lambda x: np.where(np.asarray(x) > 0.5, np.inf, 0.0))
        rep = check_shannon_inequality(f, 2, trials=1000, seed=42)
        assert rep.verdict == "inconclusive" and rep.failures == 1000

    def test_determinism(self):
        f = ScalarFunction(lambda x: 0.5 * np.square(x) - np.asarray(x, dtype=float),
                           label="q")
        a = check_shannon_inequality(f, 3, trials=10_000, seed=2)
        b = check_shannon_inequality(f, 3, trials=10_000, seed=2)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_golden_violations_not_noted_as_evidence():
    golden = Path(__file__).resolve().parents[1] / "reports" / "golden-seed42.json"
    found = []

    def walk(node):
        if isinstance(node, dict):
            if node.get("verdict") == "violation":
                found.append(node)
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(golden.read_text()))
    assert found
    assert all(rep["note"] != NOT_A_PROOF for rep in found)


def test_catalog_dpi_small_suite_n2_n3():
    # smaller-resolution rehearsal of the catalog acceptance gate
    for name in ("kl", "tv", "hellinger", "chi2"):
        d = catalog(name)
        assert not check_dpi(d, 2, grid=15, random_trials=5000, seed=11).violated
        assert not check_dpi(d, 3, random_trials=20_000, seed=11).violated


def all_nan():
    """A composed divergence whose every evaluation fails: its outer function
    returns NaN for any value of tv."""
    outer = ScalarFunction(lambda x: np.full(np.shape(x), np.nan), label="nan")
    return DivergenceSpec("composed", "all_nan", base=catalog("tv"), outer=outer,
                          validate=False)


def test_failed_evaluations_are_inconclusive():
    d = all_nan()
    reports = [check_dpi(d, 2, grid=10, random_trials=1000, seed=1),
               check_dpi(d, 3, random_trials=1000, seed=1),
               check_sufficiency(d, 3, trials=300, seed=1),
               check_decomposable_binary(d, grid=20),
               check_shannon_inequality(
                   ScalarFunction(lambda x: np.full(np.shape(x), np.nan), label="nan"),
                   3, trials=1000, seed=1)]
    for rep in reports:
        assert rep.verdict == "inconclusive", rep.property
        assert rep.failures == rep.trials
        assert not rep.violated and rep.witness is None
        assert rep.note != NOT_A_PROOF


def test_dpi_judge_infinite_before_holds():
    # D(before) = +inf bounds any D(after): gap -inf; only after = +inf is +inf
    with np.errstate(all="raise"):
        gap, _ = checkers._dpi_judge(np.array([np.inf, np.inf, 1.0]),
                                     np.array([np.inf, 2.0, np.inf]))
    assert gap.tolist() == [-np.inf, -np.inf, np.inf]


def test_abs_delta_equal_infinities_without_warning():
    with np.errstate(all="raise"):
        assert _abs_delta(np.array([np.inf]), np.array([np.inf])).tolist() == [0.0]


def test_dpi_infinite_on_both_sides_is_no_failure():
    # tv, or +inf above 1/2: a channel never raises tv, so an infinite value
    # after the channel has an infinite one before it, and the inequality holds
    outer = ScalarFunction(
        lambda x: np.where(np.asarray(x) > 0.5, np.inf, np.asarray(x, dtype=float)),
        label="tv or inf")
    d = DivergenceSpec("composed", "tv_or_inf", base=catalog("tv"), outer=outer,
                       validate=False)
    for rep in (check_dpi(d, 2, grid=10, random_trials=1000, seed=1),
                check_dpi(d, 3, random_trials=1000, seed=1)):
        assert rep.verdict == "no_violation_found" and rep.failures == 0


def test_refinement_takes_the_dpi_judge_at_infinite_values():
    # G = negative entropy + squared norm, kl + euclidean: +inf on the faces,
    # where the refinement's states meet inf - inf, and no data processing at
    # n = 3.  Its gap is the judge's -inf: no warning, the same witness
    ne, sq = negative_entropy(), squared_norm_G()
    G = ScalarFunction(lambda P: ne(P) + sq(P),
                       deriv=lambda Q: ne.deriv(Q) + sq.deriv(Q), label="kl+euclidean")
    d = DivergenceSpec("bregman", "kl+euclidean", G=G)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = check_dpi(d, 3, random_trials=20_000, seed=42)
    assert (rep.verdict, rep.max_gap, rep.failures) == ("violation", 0.49475349253083767, 0)


def given(X, Y):
    """The synthetic evaluator: a block's rows are their own values."""
    return X


def given_judge(before, after):
    """The synthetic judge: the values before are tolerances, after gaps."""
    return after, before


def given_blocks(batches):
    """Synthetic blocks of (gaps, tolerances, point_of): the tolerances as
    rows before, the gaps as rows after."""
    return [(tol, None, gap, None, point_of) for gap, tol, point_of in batches]


class TestSearch:
    """The one search loop, on synthetic blocks."""

    @staticmethod
    def search(batches, after=None, tol=0.0):
        """_search on synthetic blocks of (gaps, tolerances, point_of): the
        re-check of a point is {"point": point, "value_before": tol,
        "value_after": after}, judged as a gap of after against tol;
        after=None forbids it."""
        def recheck(d, *point):
            assert after is not None, "a clean search was re-checked"
            return {"point": point, "value_before": tol, "value_after": after}
        return _search("synthetic", 4, {"trials": 4}, given_blocks(batches),
                       given_judge, None, evaluate=given, recheck=recheck)

    def test_tie_keeps_the_earlier_batch(self):
        rep = self.search([(np.array([0.5, 0.1]), 0.0, lambda k: ("first", k)),
                           (np.array([0.2, 0.5]), 0.0, lambda k: ("second", k))],
                          after=1.0)
        assert rep.verdict == "violation" and rep.note == VIOLATION_SHOWN
        assert rep.witness["point"] == ("first", 0) and rep.max_gap == 1.0

    def test_strictly_greater_margin_replaces_the_best(self):
        margin, gap, point, failures = _scan(given, given_judge, given_blocks(
            [(np.array([0.5, np.nan]), 0.1, lambda k: ("first", k)),
             (np.array([0.2, 0.7]), np.array([0.0, 0.1]), lambda k: ("second", k))]))
        assert (point, gap, failures) == (("second", 1), 0.7, 1)
        assert margin == pytest.approx(0.6)

    def test_infinite_gap_against_infinite_tolerance_never_wins(self):
        margin, gap, point, failures = _scan(given, given_judge, given_blocks(
            [(np.array([np.inf, 0.5]), np.array([np.inf, 0.1]), lambda k: k)]))
        assert (point, gap, failures) == (1, 0.5, 1)
        assert margin == pytest.approx(0.4)

    def test_clean_search_is_never_confirmed(self):
        rep = self.search([(np.array([-1.0, 0.5]), 1.0, lambda k: (k,))])
        assert rep.verdict == "no_violation_found" and rep.note == NOT_A_PROOF
        assert rep.max_gap == 0.5 and rep.failures == 0 and rep.witness is None

    def test_refuted_candidate_is_a_clean_search(self):
        rep = self.search([(np.array([0.5, 0.1]), 0.0, lambda k: (k,))],
                          after=1e-12, tol=1e-9)
        assert rep.verdict == "no_violation_found"
        assert rep.note == REFUTED + NOT_A_PROOF
        assert rep.max_gap == 1e-12 and rep.witness is None and rep.failures == 0

    def test_nan_reevaluation_is_one_more_failure(self):
        rep = self.search([(np.array([0.5, 0.1]), 0.0, lambda k: (k,))],
                          after=np.nan, tol=1e-9)
        assert rep.verdict == "inconclusive"
        assert rep.note == REFUTED + INCONCLUSIVE
        assert rep.failures == 1 and rep.witness is None

    def test_divergence_candidate_is_refined_then_rechecked(self):
        d = catalog("euclidean")
        start = (np.array([0.2, 0.2, 0.6]), np.array([0.1, 0.1, 0.8]),
                 merge_transform(0, 1, 3).matrix)
        seen = []

        def refine(d, point):
            seen.append(point)
            return dpi_local_refine(d, point, iters=5)
        block = (np.array([0.0]), None, np.array([1.0]), None, lambda k: start)
        rep = _search("dpi", 1, {"trials": 1}, [block], _dpi_judge, d,
                      evaluate=given, refine=refine)
        assert len(seen) == 1 and seen[0] is start
        assert rep.verdict == "violation"
        assert rep.witness == _recheck(d, *dpi_local_refine(d, start, iters=5)[:3])
        assert rep.max_gap == rep.witness["gap"] > 0.02

    @pytest.mark.parametrize("check", [
        lambda: check_sufficiency(catalog("euclidean"), 3, trials=2000, seed=42),
        lambda: check_dpi(catalog("euclidean"), 3, random_trials=2000, seed=42)],
        ids=["sufficiency", "dpi"])
    def test_recheck_evaluates_through_evaluate_scenario(self, monkeypatch, check):
        calls = []
        real = checkers.evaluate_scenario

        def recording(d, P, Q, A):
            calls.append((P, Q, A))
            return real(d, P, Q, A)
        monkeypatch.setattr(checkers, "evaluate_scenario", recording)
        rep = check()
        assert rep.verdict == "violation" and len(calls) == 1
        P, Q, A = calls[0]
        w = rep.witness
        assert (w["P"], w["Q"], w["channel"]) == (list(P), list(Q),
                                                  np.asarray(A).tolist())

    def test_counts_are_checked_before_any_batch(self):
        def blocks():
            raise AssertionError("a block was drawn")
            yield
        for trials, config in ((0, {"trials": 0}), (-5, {"trials": -5}),
                               (16, {"grid": -2, "random_trials": 0})):
            with pytest.raises(DivergenceError, match="nothing to search"):
                _search("synthetic", trials, config, blocks(), None, None)


def shannon_quadratic():
    return ScalarFunction(lambda x: 0.5 * np.square(x) - np.asarray(x, dtype=float),
                          label="q")


@pytest.mark.parametrize("check", [
    lambda: check_dpi(catalog("kl"), 2, grid=0, random_trials=0),
    lambda: check_dpi(catalog("kl"), 2, grid=-2, random_trials=100),
    lambda: check_dpi(catalog("kl"), 2, grid=3, random_trials=-1),
    lambda: check_dpi(catalog("kl"), 3, random_trials=0),
    lambda: check_dpi(catalog("kl"), 3, random_trials=-5),
    lambda: check_sufficiency(catalog("kl"), 3, trials=0),
    lambda: check_sufficiency(catalog("kl"), 2, trials=-5),
    lambda: check_decomposable_binary(catalog("kl"), grid=0),
    lambda: check_decomposable_binary(catalog("kl"), grid=-3),
    lambda: check_shannon_inequality(shannon_quadratic(), 3, trials=0),
    lambda: check_shannon_inequality(shannon_quadratic(), 3, trials=-5),
], ids=["dpi-n2-empty", "dpi-n2-negative-grid", "dpi-n2-negative-trials",
        "dpi-n3-empty", "dpi-n3-negative", "sufficiency-empty",
        "sufficiency-negative", "decomposable-empty", "decomposable-negative",
        "shannon-empty", "shannon-negative"])
def test_empty_or_negative_search_is_an_error(check):
    with pytest.raises(DivergenceError, match="nothing to search"):
        check()


@pytest.mark.parametrize("check", [
    lambda n: check_dpi(catalog("kl"), n, grid=3, random_trials=100),
    lambda n: check_sufficiency(catalog("kl"), n, trials=100),
    lambda n: check_shannon_inequality(shannon_quadratic(), n, trials=100),
], ids=["dpi", "sufficiency", "shannon"])
@pytest.mark.parametrize("n", [1, 0, -1])
def test_alphabet_below_two_is_an_error(check, n):
    with pytest.raises(DivergenceError, match="at least 2 symbols"):
        check(n)


# ---------------------------------------------------------------------------
# block-wise random scans
# ---------------------------------------------------------------------------

def fresh_block_sizes(trials):
    """Blocks of SLICE rows, then the short rest: what every random scan draws
    and evaluates, one block after another."""
    full, rest = divmod(trials, checkers.SLICE)
    return [checkers.SLICE] * full + [rest] * (rest > 0)


# Reference scans: a block loop that evaluates each block whole and frees
# nothing, and one draw per scan kind that draws every block fresh through
# the reference samplers, in the checker's order.  Each point_of binds its
# own block, so it stays valid after the next.

def reference_scan(evaluate, judge, blocks):
    best, failures = (-np.inf, -np.inf, None), 0
    for P, Q, PT, QT, point_of in blocks:
        before = before if P is None else evaluate(P, Q)
        k, margin, gap, fail = _reduce(*judge(before, evaluate(PT, QT)))
        failures += fail
        if margin > best[0]:
            best = (margin, gap, point_of(k))
    return (*best, failures)


def dpi_binary_reference(rng, trials):
    for m in fresh_block_sizes(trials):
        p = np.clip(rng.uniform(size=m), 1e-9, 1 - 1e-9)
        q = np.clip(rng.uniform(size=m), 1e-9, 1 - 1e-9)
        a = rng.uniform(size=m)
        b = rng.uniform(size=m)
        yield (binary_rows(p), binary_rows(q), binary_rows(p * a + b * (1 - p)),
               binary_rows(q * a + b * (1 - q)),
               lambda k, p=p, q=q, a=a, b=b: _binary_triple(p[k], q[k], a[k], b[k]))


def dpi_reference(rng, trials, n):
    for m in fresh_block_sizes(trials):
        P = sample_simplex_divided(rng, m, n)
        Q = sample_simplex_divided(rng, m, n)
        W, S = sample_channels_masked(rng, m, n)
        # row i of a channel weighs P_i / S_i: the channels stay unnormalised
        yield (P, Q, np.einsum("mi,mij->mj", P / S, W),
               np.einsum("mi,mij->mj", Q / S, W),
               lambda k, P=P, Q=Q, W=W, S=S: (P[k], Q[k], W[k] / S[k][:, None]))


def permutation_reference(rng, trials, n):
    for m in fresh_block_sizes(trials):
        P = sample_simplex_divided(rng, m, n)
        Q = sample_simplex_divided(rng, m, n)
        sigma = np.argsort(rng.uniform(size=(m, n)), axis=1)
        # the transposition of symbols sigma[:, 0] and sigma[:, 1]
        perm = np.array([np.arange(n)] * m)
        for k, (i, j) in enumerate(sigma[:, :2]):
            perm[k, i], perm[k, j] = j, i
        rows = np.arange(m)[:, None]
        # after[y] = P[perm[y]]: the channel sends symbol x to argsort(perm)[x]
        yield (P, Q, P[rows, perm], Q[rows, perm],
               lambda k, P=P, Q=Q, perm=perm: (
                   P[k], Q[k], np.eye(n)[np.argsort(perm[k])],
                   "permutation"))


def merge_split_rows_reference(base, t, sigma):
    """One column at a time: base[:, c] goes to sigma[:, c + 1] for c >= 1, and
    base[:, 0] to sigma[:, 0], or split t : 1 - t with sigma[:, 1]."""
    m, n = sigma.shape
    rows = np.arange(m)
    merged = np.zeros((m, n))
    for c in range(1, n - 1):
        merged[rows, sigma[:, c + 1]] = base[:, c]
    split = merged.copy()
    merged[rows, sigma[:, 0]] = base[:, 0]
    split[rows, sigma[:, 0]] = t * base[:, 0]
    split[rows, sigma[:, 1]] = (1 - t) * base[:, 0]
    return merged, split


def merge_split_reference(rng, trials, n, kind):
    for m in fresh_block_sizes(trials):
        baseP = sample_simplex_divided(rng, m, n - 1)
        baseQ = sample_simplex_divided(rng, m, n - 1)
        t = rng.uniform(size=m)
        sigma = np.argsort(rng.uniform(size=(m, n)), axis=1)
        merged_P, split_P = merge_split_rows_reference(baseP, t, sigma)
        merged_Q, split_Q = merge_split_rows_reference(baseQ, t, sigma)
        if kind == "merge":
            yield (split_P, split_Q, merged_P, merged_Q,
                   lambda k, P=split_P, Q=split_Q, sigma=sigma: (
                       P[k], Q[k], merge_transform(sigma[k, 0], sigma[k, 1], n).matrix,
                       kind))
        else:
            yield (merged_P, merged_Q, split_P, split_Q,
                   lambda k, P=merged_P, Q=merged_Q, sigma=sigma, t=t: (
                       P[k], Q[k],
                       split_transform(sigma[k, 0], sigma[k, 1], t[k], n).matrix, kind))


def pairs_reference(rng, trials, n):
    # the Shannon sums: (P, P) gives sum p f(p) before, (P, Q) sum p f(q) after
    for m in fresh_block_sizes(trials):
        P = sample_simplex_divided(rng, m, n)
        Q = sample_simplex_divided(rng, m, n)
        yield P, P, P, Q, lambda k, P=P, Q=Q: (P[k], Q[k])


# the block loop, whose blocks are noted, and the draws of the scan kinds
SCAN_REFERENCES = {"_scan": reference_scan}
DRAW_REFERENCES = {"_draw_binary": dpi_binary_reference, "_draw_channels": dpi_reference,
                   "_draw_permutation": permutation_reference,
                   "_draw_merge_split": merge_split_reference,
                   "_draw_pairs": pairs_reference}

BLOCK_TRIALS = 6000
LATE_TRIALS = 5976  # 4,096 + 1,880 and 5 * 997 + 991 rows


def shannon_capped():
    """The Shannon quadratic, +inf above 0.95: some candidates of every few
    hundred fail (an infinite gap against an infinite tolerance)."""
    return ScalarFunction(lambda x: np.where(np.asarray(x) > 0.95, np.inf,
                                             0.5 * np.square(x) - np.asarray(x)),
                          label="capped")


def shannon_clog():
    return ScalarFunction(lambda x: -2.0 * np.log(x) + 0.1, label="clog")


BLOCK_CASES = {
    "dpi-kl-grid0": lambda: check_dpi(catalog("kl"), 2, grid=0,
                                      random_trials=BLOCK_TRIALS, seed=3),
    "dpi-kl-grid10": lambda: check_dpi(catalog("kl"), 2, grid=10,
                                       random_trials=BLOCK_TRIALS, seed=3),
    "dpi-decreasing-grid0": lambda: check_dpi(kl_type_family("decreasing"), 2, grid=0,
                                              random_trials=BLOCK_TRIALS, seed=3),
    "dpi-decreasing-grid10": lambda: check_dpi(kl_type_family("decreasing"), 2,
                                               grid=10, random_trials=BLOCK_TRIALS,
                                               seed=3),
    "sufficiency-kl-n2": lambda: check_sufficiency(catalog("kl"), 2,
                                                   trials=BLOCK_TRIALS, seed=3),
    "sufficiency-kl-n3": lambda: check_sufficiency(catalog("kl"), 3,
                                                   trials=BLOCK_TRIALS, seed=3),
    "sufficiency-euclidean-n3": lambda: check_sufficiency(catalog("euclidean"), 3,
                                                          trials=BLOCK_TRIALS, seed=3),
    "shannon-clog-n3": lambda: check_shannon_inequality(shannon_clog(), 3,
                                                        trials=BLOCK_TRIALS, seed=3),
    "shannon-quadratic-n3": lambda: check_shannon_inequality(
        shannon_quadratic(), 3, trials=BLOCK_TRIALS, seed=3),
    "shannon-capped-n3": lambda: check_shannon_inequality(shannon_capped(), 3,
                                                          trials=BLOCK_TRIALS, seed=3),
    "dpi-kl-n3": lambda: check_dpi(catalog("kl"), 3, random_trials=BLOCK_TRIALS,
                                   seed=3),
    "dpi-euclidean-n5": lambda: check_dpi(catalog("euclidean"), 5,
                                          random_trials=BLOCK_TRIALS, seed=3),
    # at seed 9 the best candidate lies in the last, short block at both sizes
    "dpi-euclidean-n5-late-block": lambda: check_dpi(catalog("euclidean"), 5,
                                                     random_trials=LATE_TRIALS, seed=9),
}


def noting_blocks(reference, noted):
    """`reference`, with every point_of noting (block index, block rows) of
    its block in `noted`: the last note is the best candidate's block."""
    def scan(evaluate, judge, blocks):
        def noting_draw():
            for i, (*rows, point_of) in enumerate(blocks):
                def noting(k, i=i, m=len(rows[2]), point_of=point_of):
                    noted.append((i, m))
                    return point_of(k)
                yield (*rows, noting)
        return reference(evaluate, judge, noting_draw())
    return scan


@pytest.mark.parametrize("case", list(BLOCK_CASES))
@pytest.mark.parametrize("rows", [997, checkers.SLICE], ids=["997", "default"])
def test_scans_report_like_fresh_blocks(monkeypatch, case, rows):
    """Every random scan reports the bytes of its reference, which draws each
    block fresh.  Blocks of 997 rows divide none of the counts, so every scan
    ends on a short block; the capped Shannon case sums failures over
    blocks."""
    monkeypatch.setattr(checkers, "SLICE", rows)
    got = json.dumps(BLOCK_CASES[case]().to_json_dict())
    noted = []
    for name, reference in SCAN_REFERENCES.items():
        monkeypatch.setattr(checkers, name, noting_blocks(reference, noted))
    for name, reference in DRAW_REFERENCES.items():
        monkeypatch.setattr(checkers, name, reference)
    assert got == json.dumps(BLOCK_CASES[case]().to_json_dict())
    if case == "dpi-euclidean-n5-late-block":
        blocks = fresh_block_sizes(LATE_TRIALS)
        assert noted[-1] == (len(blocks) - 1, blocks[-1]) and blocks[-1] < rows


def test_point_keeps_its_values_after_the_next_block():
    # _scan holds the best point while later blocks are drawn and evaluated
    trials = checkers.SLICE + 5
    draw = checkers._draw_channels(np.random.default_rng(5), trials, 3)
    ref = dpi_reference(np.random.default_rng(5), trials, 3)
    point, want = next(draw)[-1](2), next(ref)[-1](2)
    *_, last = draw
    later = last[-1](2)
    assert [x.tobytes() for x in point] == [x.tobytes() for x in want]
    assert [x.tobytes() for x in later] == [x.tobytes() for x in next(ref)[-1](2)]
    assert not np.array_equal(point[0], later[0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_channel_draw_is_the_reference(n):
    """The rows pushed through unnormalised channels are the reference's to
    the byte, block by block, and so is the stream they leave."""
    trials = checkers.SLICE + 1000
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    for got, want in zip(checkers._draw_channels(rng, trials, n),
                         dpi_reference(ref_rng, trials, n), strict=True):
        assert [x.tobytes() for x in got[:4]] == [x.tobytes() for x in want[:4]]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def draw_channels_pow(rng, trials, n):
    """The data-processing draw before its channels stayed unnormalised: the
    pow sampler's channels, pushed forward whole."""
    for m in fresh_block_sizes(trials):
        P = sample_simplex(rng, m, n)
        Q = sample_simplex(rng, m, n)
        A = sample_channels_pow(rng, m, n)
        yield (P, Q, np.einsum("mi,mij->mj", P, A), np.einsum("mi,mij->mj", Q, A),
               lambda k, P=P, Q=Q, A=A: (P[k].copy(), Q[k].copy(), A[k].copy()))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", ["kl", "chi2", "euclidean", "negative_entropy"])
def test_dpi_reports_like_the_pow_sampler(monkeypatch, name, n):
    """The unnormalised channels round their pushed rows differently, never
    enough to move a verdict, a failure count or a gap."""
    d = (DivergenceSpec("bregman", name, G=negative_entropy())
         if name == "negative_entropy" else catalog(name))
    got = [check_dpi(d, n, random_trials=20_000, seed=seed) for seed in range(4)]
    monkeypatch.setattr(checkers, "_draw_channels", draw_channels_pow)
    for seed, rep in enumerate(got):
        want = check_dpi(d, n, random_trials=20_000, seed=seed)
        assert ((rep.verdict, rep.failures, rep.max_gap)
                == (want.verdict, want.failures, want.max_gap)), seed


@pytest.mark.parametrize("rows", [997, checkers.SLICE], ids=["997", "default"])
def test_binary_swap_is_the_permutation_reference(monkeypatch, rows):
    """At n = 2 the permutation draw swaps the two columns without ranking
    the uniforms it still draws: the reference's rows, witness channels and
    stream, to the byte."""
    monkeypatch.setattr(checkers, "SLICE", rows)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    blocks = 0
    for got, want in zip(checkers._draw_permutation(rng, 6000, 2),
                         permutation_reference(ref_rng, 6000, 2), strict=True):
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [x.tobytes() for x in got[:4]] == [x.tobytes() for x in want[:4]]
        for k in range(len(got[0])):
            *arrays, kind = got[-1](k)
            *ref_arrays, ref_kind = want[-1](k)
            assert kind == ref_kind
            assert [x.tobytes() for x in arrays] == [x.tobytes() for x in ref_arrays]
        blocks += 1
    assert blocks == len(fresh_block_sizes(6000))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("check, rows", [
    (lambda: check_dpi(catalog("kl"), 2, grid=3, random_trials=500), 3 ** 4 + 500),
    (lambda: check_dpi(catalog("kl"), 3, random_trials=500), 500),
    (lambda: check_sufficiency(catalog("kl"), 2, trials=500), 500),
    (lambda: check_sufficiency(catalog("kl"), 3, trials=500), 500),
    (lambda: check_shannon_inequality(shannon_quadratic(), 3, trials=500), 500),
    (lambda: check_decomposable_binary(catalog("kl"), grid=5), 5 ** 2),
], ids=["dpi-n2", "dpi-n3", "sufficiency-n2", "sufficiency-n3", "shannon",
        "decomposable"])
def test_every_row_of_every_check_runs_through_scan(monkeypatch, check, rows):
    judged = []
    scan = checkers._scan

    def counting(evaluate, judge, blocks):
        def counted(before, after):
            gap, tol = judge(before, after)
            judged.append(gap.size)
            return gap, tol
        return scan(evaluate, counted, blocks)
    monkeypatch.setattr(checkers, "_scan", counting)
    check()
    assert sum(judged) == rows


def test_grid_rows_before_are_evaluated_once_per_check(monkeypatch):
    # the binary grid yields its grid^2 rows before on its first block alone:
    # one evaluation of them and one of each block's rows after, for the
    # data-processing grid (one block per beta) and the decomposability swap
    # (alpha = 0, beta = 1, one block)
    calls = []
    scan = checkers._scan

    def counting(evaluate, judge, blocks):
        def counted(X, Y):
            calls.append(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]))
            return evaluate(X, Y)
        return scan(counted, judge, blocks)
    monkeypatch.setattr(checkers, "_scan", counting)
    check_dpi(catalog("kl"), 2, grid=5, random_trials=0)
    assert calls == [(5, 5)] + [(5, 5, 5)] * 5
    calls.clear()
    check_decomposable_binary(catalog("kl"), grid=5)
    assert calls == [(5, 5), (1, 5, 5)]


HEAP_PROBE = """
import resource
from divergence_lab import checkers, families
d = families.kl_type_from_h(families.h_generator_from_spec("name:square"))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
checkers.check_dpi(d, 2, grid=50, random_trials=0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
def test_grid_scan_reuses_the_heap():
    """The block loop holds a block's values after until the next block's
    replace them.  A loop that frees every array of a block lets glibc trim
    the heap each block and fault it in again: a fresh grid-50 binary check
    then takes about 48,000 minor faults instead of 2,750."""
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 15_000


# what a scan may hold at once: 80 float64 columns of SLICE rows (2.5 MiB).  A
# block's draws and what is derived from them take 27-70 columns; scans that
# drew all their trials first peaked at 130-205 columns at 100,000 trials.
BLOCK_ALLOWANCE = 80 * checkers.SLICE * 8


def _memory_case(case, trials):
    """The check, its divergence built before tracing."""
    if case == "dpi-kl-type-n2":
        d = kl_type_family("square")
        return lambda: check_dpi(d, 2, grid=0, random_trials=trials)
    if case == "sufficiency-kl-n5":
        d = catalog("kl")
        return lambda: check_sufficiency(d, 5, trials=trials)
    if case == "dpi-kl-n5":
        d = catalog("kl")
        return lambda: check_dpi(d, 5, random_trials=trials)
    f = shannon_clog()
    return lambda: check_shannon_inequality(f, 4, trials=trials)


@pytest.mark.parametrize("case", ["dpi-kl-type-n2", "sufficiency-kl-n5", "shannon-n4",
                                  "dpi-kl-n5"])
def test_scan_memory_is_its_draws_plus_a_block(case):
    """A random scan holds one block's draws plus what it derives from them
    (normalised, pushed and transformed rows, divergence values, gaps), so
    its traced peak stays within one bound at any trial count."""
    np.random.default_rng()  # numpy imports its random module on first use
    for trials in (100_000, 400_000):
        check = _memory_case(case, trials)
        tracemalloc.start()
        try:
            report = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "no_violation_found"
        assert peak <= BLOCK_ALLOWANCE, (trials, peak)
