import json
from pathlib import Path

import numpy as np
import pytest

from divergence_lab.checkers import (NOT_A_PROOF, VIOLATION_SHOWN, CheckReport,
                                     check_decomposable_binary,
                                     check_dpi, check_shannon_inequality,
                                     check_sufficiency, dpi_local_refine,
                                     evaluate_scenario, sample_channels,
                                     sample_simplex)
from divergence_lab.divergences import (DivergenceSpec, ScalarFunction, catalog)
from divergence_lab.simplex import (Channel, Distribution, SufficiencyScenario,
                                    merge_transform, push_forward)


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


class TestLocalRefine:
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
