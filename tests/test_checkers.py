import json
from pathlib import Path

import numpy as np
import pytest

from divergence_lab import families
from divergence_lab.checkers import (NOT_A_PROOF, VIOLATION_SHOWN, CheckReport,
                                     check_decomposable_binary,
                                     check_dpi, check_shannon_inequality,
                                     check_sufficiency, dpi_local_refine,
                                     evaluate_scenario, sample_channels,
                                     sample_simplex)
from divergence_lab.divergences import (DivergenceSpec, ScalarFunction, catalog)
from divergence_lab.simplex import (Channel, Distribution, SufficiencyScenario,
                                    merge_transform, push_forward)


def sample_channels_masked(rng, m, n):
    """The boolean-mask sampler that sample_channels replaces with strided
    slices, kept as the reference: gather, sharpen and scatter every 4th
    trial, then every 8th becomes a deterministic map."""
    A = sample_simplex(rng, m * n, n).reshape(m, n, n)
    idx = np.arange(m)
    sharp = idx % 4 == 3
    if np.any(sharp):
        As = A[sharp] ** 8
        A[sharp] = As / As.sum(axis=2, keepdims=True)
    det = idx % 8 == 5
    k = int(det.sum())
    if k:
        verts = rng.integers(0, n, size=(k, n))
        Ad = np.zeros((k, n, n))
        Ad[np.arange(k)[:, None], np.arange(n)[None, :], verts] = 1.0
        A[det] = Ad
    return A


class TestSamplers:
    def test_simplex_rows(self):
        rng = np.random.default_rng(0)
        P = sample_simplex(rng, 1000, 4)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P > 0)

    def test_channels_are_stochastic(self):
        rng = np.random.default_rng(0)
        A = sample_channels(rng, 64, 3)
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
        A = sample_channels(rng, m, n)
        assert A.tobytes() == sample_channels_masked(ref_rng, m, n).tobytes()
        # both drew the same numbers, so the streams continue alike
        assert rng.uniform() == ref_rng.uniform()


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
    A = sample_channels(rng, count, n)
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
        s = SufficiencyScenario(Distribution([0.2, 0.2, 0.6]),
                                Distribution([0.1, 0.1, 0.8]),
                                merge_transform(0, 1, 3), "merge", i=0, j=1)
        before, after = evaluate_scenario(catalog("kl"), s)
        assert before == pytest.approx(want, abs=1e-12)
        assert after == pytest.approx(want, abs=1e-12)

    def test_euclidean_violation(self):
        rep = check_sufficiency(catalog("euclidean"), 3, trials=2000, seed=42)
        assert rep.verdict == "violation"
        assert rep.note == VIOLATION_SHOWN
        assert rep.witness["kind"] in ("merge", "split")
        assert rep.max_gap > 1e-9

    def test_named_witness_delta(self):
        s = SufficiencyScenario(Distribution([0.2, 0.2, 0.6]),
                                Distribution([0.1, 0.1, 0.8]),
                                merge_transform(0, 1, 3), "merge", i=0, j=1)
        before, after = evaluate_scenario(catalog("euclidean"), s)
        assert after - before == pytest.approx(0.02, abs=1e-12)

    def test_binary_permutations_exact_for_decomposable(self):
        rep = check_sufficiency(catalog("tv_squared"), 2, trials=500, seed=3)
        assert rep.max_gap <= 1e-12

    def test_determinism(self):
        a = check_sufficiency(catalog("kl"), 4, trials=1000, seed=5)
        b = check_sufficiency(catalog("kl"), 4, trials=1000, seed=5)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


class TestDecomposable:
    def test_tv_squared_symmetric(self):
        rep = check_decomposable_binary(catalog("tv_squared"), grid=200)
        assert rep.verdict == "no_violation_found"

    def test_catalog_f_divergences_symmetric(self):
        for name in ("kl", "tv", "hellinger", "chi2"):
            rep = check_decomposable_binary(catalog(name), grid=50)
            assert rep.verdict == "no_violation_found"

    def test_asymmetric_divergence_flagged(self):
        # D((p,1-p);(q,1-q)) = (p-q)^2 * p is not swap symmetric
        class Lopsided:
            label = "lopsided"
            n = 2

            def evaluate_batch(self, P, Q):
                P = np.atleast_2d(P)
                Q = np.atleast_2d(Q)
                return (P[:, 0] - Q[:, 0]) ** 2 * P[:, 0]

        rep = check_decomposable_binary(Lopsided(), grid=100)
        assert rep.verdict == "violation"
        assert rep.note == VIOLATION_SHOWN
        # at (p,q)=(0.3,0.5): 0.04*0.3 vs 0.04*0.7
        w = rep.witness
        assert w["gap"] > 0.001

    def test_report_includes_witness_values(self):
        class Lopsided:
            label = "lopsided"
            n = 2

            def evaluate_batch(self, P, Q):
                P = np.atleast_2d(P)
                Q = np.atleast_2d(Q)
                return (P[:, 0] - Q[:, 0]) ** 2 * P[:, 0]

        rep = check_decomposable_binary(Lopsided(), grid=100)
        p, q = rep.witness["P"][0], rep.witness["Q"][0]
        assert rep.witness["value_before"] == pytest.approx((p - q) ** 2 * p, abs=1e-12)
        assert rep.witness["value_after"] == pytest.approx(
            (p - q) ** 2 * (1 - p), abs=1e-12)


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


class AllNaN:
    """A divergence whose every evaluation fails."""

    label = "all_nan"

    def evaluate_batch(self, P, Q):
        return np.full(np.atleast_2d(P).shape[0], np.nan)


def test_failed_evaluations_are_inconclusive():
    d = AllNaN()
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
