import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divergence_lab.simplex import (Channel, Distribution, SimplexError,
                                    merge_transform, push_forward, row_sum,
                                    split_transform)


def dist(*vals):
    return Distribution(np.array(vals))


def binary(a, b):
    """The binary channel with rows (a, 1-a) and (b, 1-b)."""
    return Channel([[a, 1.0 - a], [b, 1.0 - b]])


class TestDistribution:
    def test_valid(self):
        d = dist(0.3, 0.7)
        assert d.n == 2

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

    @pytest.mark.parametrize("vals", [[np.nan, 1.0], [1.0, np.nan],
                                      [0.5, np.nan, 0.5], [np.nan, np.nan],
                                      [np.inf, 0.5]])
    def test_non_finite_rejected(self, vals):
        # a NaN fails the sum check's comparison, so it needs its own check
        with pytest.raises(SimplexError, match="non-finite"):
            Distribution(vals)


class TestChannel:
    def test_row_sums_checked(self):
        with pytest.raises(SimplexError):
            Channel([[0.5, 0.4], [0.5, 0.5]])

    @pytest.mark.parametrize("rows", [[[np.nan, 1.0], [0.0, 1.0]],
                                      [[1.0, 0.0], [0.5, np.nan]]])
    def test_non_finite_rejected(self, rows):
        with pytest.raises(SimplexError, match="non-finite"):
            Channel(rows)


class TestPushForward:
    def test_identity(self):
        out = push_forward(dist(0.3, 0.7), binary(1.0, 0.0))
        assert np.allclose(out.probs, [0.3, 0.7])

    def test_constant_channel(self):
        out = push_forward(dist(0.3, 0.7), binary(0.4, 0.4))
        assert np.allclose(out.probs, [0.4, 0.6])

    def test_binary_arithmetic(self):
        # 0.3*0.9 + 0.7*0.2 = 0.41
        out = push_forward(dist(0.3, 0.7), binary(0.9, 0.2))
        assert np.allclose(out.probs, [0.41, 0.59], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(SimplexError):
            push_forward(dist(0.2, 0.3, 0.5), binary(1.0, 0.0))


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
    one_step = push_forward(p, Channel(a.matrix @ b.matrix))
    assert np.allclose(two_step.probs, one_step.probs, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(simplex_vectors, st.integers(0, 2 ** 31 - 1))
def test_permutation_push_forward_permutes_exactly(raw, seed):
    p = Distribution(np.array(raw) / np.sum(raw))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(p.n)
    # row x of the channel is the unit vector perm[x]: symbol x goes to perm[x]
    out = push_forward(p, Channel(np.eye(p.n)[perm]))
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
        # the split pair is proportional: p_0 q_1 = p_1 q_0
        assert abs(p.probs[0] * q.probs[1] - p.probs[1] * q.probs[0]) <= 1e-12
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
            got, want = row_sum(X), X.sum(axis=-1)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
