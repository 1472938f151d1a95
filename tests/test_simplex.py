import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divergence_lab.simplex import (Channel, Distribution, SimplexError,
                                    SufficiencyScenario, binary_channel, compose,
                                    merge_transform, proportional_pairs,
                                    push_forward, row_min, row_sum,
                                    split_transform)


def dist(*vals):
    return Distribution(np.array(vals))


class TestDistribution:
    def test_valid(self):
        d = dist(0.3, 0.7)
        assert d.n == 2
        assert d.is_interior

    def test_boundary_not_interior(self):
        assert not dist(0.0, 1.0).is_interior

    def test_sum_tolerance(self):
        Distribution([0.5, 0.5 + 5e-13])
        with pytest.raises(SimplexError):
            Distribution([0.5, 0.51])

    def test_negative_rejected(self):
        with pytest.raises(SimplexError):
            Distribution([-0.1, 1.1])

    def test_tiny_negative_clamped_to_zero(self):
        d = Distribution([1.0 + 5e-16, -5e-16])
        assert d.probs[1] == 0.0

    def test_needs_two_symbols(self):
        with pytest.raises(SimplexError):
            Distribution([1.0])

    def test_parse(self):
        assert np.allclose(Distribution.parse("0.3,0.7").probs, [0.3, 0.7])
        with pytest.raises(SimplexError):
            Distribution.parse("0.3,spam")

    def test_immutable(self):
        d = dist(0.5, 0.5)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestChannel:
    def test_row_sums_checked(self):
        with pytest.raises(SimplexError):
            Channel([[0.5, 0.4], [0.5, 0.5]])

    def test_parse_text(self):
        ch = Channel.parse("0.9,0.1;0.2,0.8")
        assert np.allclose(ch.matrix, [[0.9, 0.1], [0.2, 0.8]])

    def test_parse_json(self):
        ch = Channel.from_json("[[1.0, 0.0], [0.0, 1.0]]")
        assert np.allclose(ch.matrix, np.eye(2))

    def test_permutation(self):
        ch = Channel.permutation([2, 0, 1])
        out = push_forward(dist(0.5, 0.3, 0.2), ch)
        # symbol x maps to perm[x]
        assert np.allclose(out.probs, [0.3, 0.2, 0.5])

    def test_bad_permutation(self):
        with pytest.raises(SimplexError):
            Channel.permutation([0, 0, 1])


class TestPushForward:
    def test_identity(self):
        out = push_forward(dist(0.3, 0.7), binary_channel(1.0, 0.0))
        assert np.allclose(out.probs, [0.3, 0.7])

    def test_constant_channel(self):
        out = push_forward(dist(0.3, 0.7), binary_channel(0.4, 0.4))
        assert np.allclose(out.probs, [0.4, 0.6])

    def test_binary_arithmetic(self):
        # 0.3*0.9 + 0.7*0.2 = 0.41
        out = push_forward(dist(0.3, 0.7), binary_channel(0.9, 0.2))
        assert np.allclose(out.probs, [0.41, 0.59], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(SimplexError):
            push_forward(dist(0.2, 0.3, 0.5), binary_channel(1.0, 0.0))


class TestBinaryChannel:
    def test_identity_swap_erasing(self):
        assert np.allclose(binary_channel(1, 0).matrix, np.eye(2))
        assert np.allclose(binary_channel(0, 1).matrix, [[0, 1], [1, 0]])
        assert np.allclose(binary_channel(0.5, 0.5).matrix, 0.5 * np.ones((2, 2)))

    def test_out_of_range(self):
        with pytest.raises(SimplexError):
            binary_channel(1.2, 0.0)


class TestMergeSplit:
    def test_merge_examples(self):
        out = push_forward(dist(0.2, 0.2, 0.6), merge_transform(0, 1, 3))
        assert np.allclose(out.probs, [0.4, 0.0, 0.6])
        out = push_forward(dist(0.1, 0.1, 0.8), merge_transform(0, 1, 3))
        assert np.allclose(out.probs, [0.2, 0.0, 0.8])

    def test_binary_merge_is_point_mass(self):
        out = push_forward(dist(0.3, 0.7), merge_transform(0, 1, 2))
        assert np.allclose(out.probs, [1.0, 0.0])

    def test_merge_index_errors(self):
        with pytest.raises(SimplexError):
            merge_transform(0, 0, 3)
        with pytest.raises(SimplexError):
            merge_transform(0, 3, 3)

    def test_split_identity_at_t1(self):
        assert np.allclose(split_transform(0, 1, 1.0, 3).matrix, np.eye(3))

    def test_split_example(self):
        out = push_forward(dist(0.4, 0.0, 0.6), split_transform(0, 1, 0.5, 3))
        assert np.allclose(out.probs, [0.2, 0.2, 0.6])

    def test_split_then_merge_identity_on_zero_coordinate(self):
        p = dist(0.4, 0.0, 0.6)
        mid = push_forward(p, split_transform(0, 1, 0.3, 3))
        back = push_forward(mid, merge_transform(0, 1, 3))
        assert np.allclose(back.probs, p.probs, atol=1e-15)

    def test_split_t_out_of_range(self):
        with pytest.raises(SimplexError):
            split_transform(0, 1, 1.5, 3)


class TestProportionalPairs:
    def test_single_pair(self):
        got = proportional_pairs(dist(0.2, 0.2, 0.6), dist(0.1, 0.1, 0.8))
        assert got == [(0, 1)]

    def test_identical_distributions_all_pairs(self):
        got = proportional_pairs(dist(0.2, 0.3, 0.5), dist(0.2, 0.3, 0.5))
        assert got == [(0, 1), (0, 2), (1, 2)]

    def test_no_pairs(self):
        # 0.5*0.75 != 0.5*0.25
        assert proportional_pairs(dist(0.5, 0.5), dist(0.25, 0.75)) == []

    def test_zero_coordinates_well_defined(self):
        got = proportional_pairs(dist(0.0, 0.5, 0.5), dist(0.0, 0.25, 0.75))
        assert (0, 1) in got and (0, 2) in got and (1, 2) not in got


class TestSufficiencyScenario:
    def test_merge_requires_proportional(self):
        with pytest.raises(SimplexError):
            SufficiencyScenario(dist(0.5, 0.2, 0.3), dist(0.2, 0.5, 0.3),
                                merge_transform(0, 1, 3), "merge", i=0, j=1)

    def test_valid_merge(self):
        s = SufficiencyScenario(dist(0.2, 0.2, 0.6), dist(0.1, 0.1, 0.8),
                                merge_transform(0, 1, 3), "merge", i=0, j=1)
        pa, qa = s.apply()
        assert np.allclose(pa.probs, [0.4, 0, 0.6])
        assert np.allclose(qa.probs, [0.2, 0, 0.8])

    def test_split_requires_empty_destination(self):
        with pytest.raises(SimplexError):
            SufficiencyScenario(dist(0.4, 0.1, 0.5), dist(0.2, 0.1, 0.7),
                                split_transform(0, 1, 0.5, 3), "split", i=0, j=1)

    def test_unknown_kind(self):
        with pytest.raises(SimplexError):
            SufficiencyScenario(dist(0.5, 0.5), dist(0.5, 0.5),
                                binary_channel(0, 1), "rotate")


simplex_vectors = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(simplex_vectors, st.integers(0, 2 ** 31 - 1))
def test_push_forward_preserves_simplex(raw, seed):
    p = Distribution(np.array(raw) / np.sum(raw))
    rng = np.random.default_rng(seed)
    rows = rng.exponential(size=(p.n, p.n))
    ch = Channel(rows / rows.sum(axis=1, keepdims=True))
    out = push_forward(p, ch)
    assert abs(out.probs.sum() - 1.0) <= 1e-12
    assert np.all(out.probs >= 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(simplex_vectors, st.integers(0, 2 ** 31 - 1))
def test_push_forward_composition(raw, seed):
    p = Distribution(np.array(raw) / np.sum(raw))
    rng = np.random.default_rng(seed)
    rows = rng.exponential(size=(2, p.n, p.n))
    a = Channel(rows[0] / rows[0].sum(axis=1, keepdims=True))
    b = Channel(rows[1] / rows[1].sum(axis=1, keepdims=True))
    two_step = push_forward(push_forward(p, a), b)
    one_step = push_forward(p, compose(a, b))
    assert np.allclose(two_step.probs, one_step.probs, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(simplex_vectors, st.integers(0, 2 ** 31 - 1))
def test_permutation_push_forward_permutes_exactly(raw, seed):
    p = Distribution(np.array(raw) / np.sum(raw))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(p.n)
    out = push_forward(p, Channel.permutation(perm))
    assert np.array_equal(out.probs[perm], p.probs)


def test_merged_proportional_pairs_stay_proportional():
    rng = np.random.default_rng(5)
    for _ in range(50):
        base_p = rng.exponential(size=3)
        base_p /= base_p.sum()
        base_q = rng.exponential(size=3)
        base_q /= base_q.sum()
        t = rng.uniform()
        p = Distribution(np.array([t * base_p[0], (1 - t) * base_p[0],
                                   base_p[1], base_p[2]]))
        q = Distribution(np.array([t * base_q[0], (1 - t) * base_q[0],
                                   base_q[1], base_q[2]]))
        assert (0, 1) in proportional_pairs(p, q, tol=1e-12)
        pa = push_forward(p, merge_transform(0, 1, 4))
        qa = push_forward(q, merge_transform(0, 1, 4))
        # unmerged coordinates do not change, so their cross-ratios persist
        assert np.allclose(pa.probs[2:], p.probs[2:], atol=1e-15)
        assert np.allclose(qa.probs[2:], q.probs[2:], atol=1e-15)


def _rows_with_specials(shape, seed):
    """Random rows of mixed scale with +-inf, NaN and signed zeros mixed in."""
    rng = np.random.default_rng(seed)
    X = rng.exponential(size=shape) * rng.choice([1e-8, 1.0, 1e8], size=shape)
    X *= rng.choice([-1.0, 1.0], size=shape)
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
    mask = rng.uniform(size=shape) < 0.3
    X[mask] = rng.choice(special, size=int(mask.sum()))
    return X


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("lead", [(500,), (20, 30)])
def test_row_reductions_bit_equal_numpy(n, lead):
    plain = np.random.default_rng(n).exponential(size=lead + (n,))
    special = _rows_with_specials(lead + (n,), seed=n)
    zeros = np.full(lead + (n,), -0.0)
    zeros[::2, ..., ::3] = 0.0
    # inf - inf rows are meant to produce NaN here
    with np.errstate(invalid="ignore"):
        for X in (plain, -plain, special, special[..., ::-1], zeros):
            for got, want in ((row_sum(X), X.sum(axis=-1)),
                              (row_min(X), X.min(axis=-1))):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
