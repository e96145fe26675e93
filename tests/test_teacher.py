import numpy as np
import pytest

from clusteralign.network import NetworkSpec, forward, init_network
from clusteralign.seeding import seeded_rng
from clusteralign.teacher import (
    TeacherState,
    corrected_probabilities,
    init_teacher,
    pi_predict,
    pseudo_labels,
    temporal_step,
)

from helpers import ewma_oracle, temporal_update


def update(state, indices, probabilities):
    """The state after one temporal_step on a batch."""
    return temporal_step(state, np.asarray(indices), probabilities)[1]


def table_rows(state, indices):
    """Rows indices[..., j] of each seed's corrected table."""
    return np.take_along_axis(corrected_probabilities(state), indices[..., None], axis=-2)


class TestPiPredict:
    def test_no_dropout_matches_student(self):
        net = init_network(NetworkSpec((3, 8, 2), dropout_rate=0.0), 1)
        x = seeded_rng(0).normal(size=(6, 3))
        teacher = pi_predict(net, x, noise=99)
        student = forward(net, x, mode="eval").probabilities
        assert np.array_equal(teacher, student)

    def test_fixed_seed_deterministic(self):
        net = init_network(NetworkSpec((3, 8, 2), dropout_rate=0.5), 1)
        x = seeded_rng(1).normal(size=(6, 3))
        assert np.array_equal(pi_predict(net, x, 5), pi_predict(net, x, 5))
        assert not np.array_equal(pi_predict(net, x, 5), pi_predict(net, x, 6))

    def test_rows_sum_to_one(self):
        net = init_network(NetworkSpec((3, 8, 4), dropout_rate=0.3), 2)
        x = seeded_rng(2).normal(size=(10, 3))
        probs = pi_predict(net, x, 7)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)


class TestTemporalEnsemble:
    def test_first_update_bias_corrected(self):
        state = init_teacher(1, 2, decay=0.6)
        state = update(state, [0], np.array([[1.0, 0.0]]))
        assert np.allclose(state.ensemble[0], [0.4, 0.0], atol=1e-12)
        assert np.allclose(corrected_probabilities(state)[0], [1.0, 0.0], atol=1e-12)

    def test_second_update_hand_values(self):
        state = init_teacher(1, 2, decay=0.6)
        state = update(state, [0], np.array([[1.0, 0.0]]))
        state = update(state, [0], np.array([[0.0, 1.0]]))
        assert np.allclose(state.ensemble[0], [0.24, 0.4], atol=1e-12)
        assert np.allclose(corrected_probabilities(state)[0], [0.375, 0.625], atol=1e-12)
        labels, conf = pseudo_labels(corrected_probabilities(state))
        assert labels[0] == 1
        assert conf[0] == pytest.approx(0.625, abs=1e-12)

    def test_zero_decay_tracks_latest(self):
        state = init_teacher(1, 2, decay=0.0)
        state = update(state, [0], np.array([[0.3, 0.7]]))
        state = update(state, [0], np.array([[0.9, 0.1]]))
        assert np.allclose(corrected_probabilities(state)[0], [0.9, 0.1], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_summation_oracle(self, seed):
        rng = seeded_rng(50, seed)
        decay = float(rng.uniform(0.1, 0.95))
        state = init_teacher(1, 3, decay=decay)
        preds = []
        for _ in range(20):
            row = rng.uniform(size=3)
            row = row / row.sum()
            read, state = temporal_step(state, np.array([0]), row[None, :])
            # The read comes before the update.
            if preds:
                assert np.all(np.abs(read[0] - ewma_oracle(preds, decay)) < 1e-10)
            else:
                assert np.all(read == 0.0)
            preds.append(row)
        assert np.all(
            np.abs(corrected_probabilities(state)[0] - ewma_oracle(preds, decay)) < 1e-10
        )

    def test_corrected_rows_sum_to_one(self):
        rng = seeded_rng(51)
        state = init_teacher(4, 3, decay=0.6)
        for _ in range(7):
            rows = rng.uniform(size=(2, 3))
            rows /= rows.sum(axis=1, keepdims=True)
            state = update(state, rng.choice(4, 2, replace=False), rows)
        probs = corrected_probabilities(state)
        seen = state.step_counts > 0
        assert np.all(np.abs(probs[seen].sum(axis=1) - 1.0) < 1e-6)

    def test_indexed_read_equals_full_table_rows(self):
        rng = seeded_rng(53)
        state = init_teacher(10, 3, decay=0.6)
        for _ in range(6):
            rows = rng.uniform(size=(3, 3))
            rows /= rows.sum(axis=1, keepdims=True)
            state = update(state, rng.choice(8, 3, replace=False), rows)
        # Rows 8 and 9 are never updated; 2 and 8 repeat.
        idx = np.array([9, 2, 8, 0, 2, 5, 8, 1])
        read, _ = temporal_step(state, idx, np.full((8, 3), 1.0 / 3.0))
        assert read.tobytes() == corrected_probabilities(state)[idx].tobytes()
        assert np.all(read[[0, 2, 6]] == 0.0)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one-table", "seed-axis"])
    def test_fused_step_equals_read_then_update(self, lead):
        # Never-updated rows, repeated indices within a batch, and a decay
        # whose powers round.
        rng = seeded_rng(54)
        seeds = lead[0] if lead else 1
        state = TeacherState(np.zeros(lead + (10, 3)), np.zeros(lead + (10,), np.int64), 0.7)
        for step in range(8):
            idx = rng.integers(8, size=lead + (6,))
            if step % 3 == 0:
                idx[..., 1] = idx[..., 4]
            rows = rng.uniform(size=lead + (6, 3))
            rows /= rows.sum(axis=-1, keepdims=True)
            read, fused = temporal_step(state, idx, rows)
            expected = temporal_update(state, idx, rows)
            assert read.tobytes() == table_rows(state, idx).tobytes()
            assert fused.ensemble.tobytes() == expected.ensemble.tobytes()
            assert np.array_equal(fused.step_counts, expected.step_counts)
            assert fused.decay == expected.decay
            state = fused
        assert np.all(state.step_counts.reshape(seeds, 10)[:, 8:] == 0)

    def test_only_batch_rows_update(self):
        state = init_teacher(3, 2, decay=0.6)
        state = update(state, [1], np.array([[0.5, 0.5]]))
        assert state.step_counts.tolist() == [0, 1, 0]
        assert np.all(state.ensemble[0] == 0.0)

    def test_index_out_of_range(self):
        state = init_teacher(2, 2, decay=0.6)
        with pytest.raises(IndexError):
            update(state, [5], np.array([[0.5, 0.5]]))

    def test_state_rejects_a_decay_of_one(self):
        with pytest.raises(ValueError, match=r"^decay must lie in \[0, 1\)$"):
            TeacherState(np.zeros((2, 2)), np.zeros(2, np.int64), 1.0)


class TestPseudoLabels:
    def test_one_hot_confidence(self):
        labels, conf = pseudo_labels(np.array([[0.0, 1.0]]))
        assert labels[0] == 1 and conf[0] == 1.0

    def test_tie_breaks_to_smallest_class(self):
        labels, conf = pseudo_labels(np.array([[0.5, 0.5]]))
        assert labels[0] == 0
        assert conf[0] == 0.5

    def test_unseen_temporal_rows_flagged_by_zero_confidence(self):
        state = init_teacher(2, 2, decay=0.6)
        state = update(state, [1], np.array([[0.2, 0.8]]))
        labels, conf = pseudo_labels(corrected_probabilities(state))
        assert labels[0] == 0 and conf[0] == 0.0
        assert labels[1] == 1 and conf[1] > 0.0

    def test_confidence_is_row_max(self):
        rng = seeded_rng(52)
        probs = rng.uniform(size=(20, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        labels, conf = pseudo_labels(probs)
        assert np.all(conf == probs.max(axis=1))
        assert np.all((conf >= 0.0) & (conf <= 1.0))
