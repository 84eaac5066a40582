"""Tests for the skeleton predictor and its constrained beam search."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.plm import train_skeleton_predictor
from repro.plm.features import question_cues
from repro.plm.skeleton_model import (
    BOS,
    EOS,
    SkeletonPredictor,
    _StepTable,
    skeleton_training_data,
)
from repro.sqlkit.skeleton import extract_skeleton, skeleton_tokens

#: sha256 of the float32 weights trained on the fixture corpus (150
#: epochs, seed 0), recorded from the per-step featurizing trainer.
SKELETON_WEIGHTS_SHA256 = (
    "78c225b4822e148881c43a735563c4cbb87cb01822cdcf34e2ca61da02b8a728"
)


@pytest.fixture(scope="module")
def predictor(request):
    train = request.getfixturevalue("train_set")
    return train_skeleton_predictor(train, epochs=150)


class TestPrediction:
    def test_returns_k_results_with_probabilities(self, predictor, dev_set):
        preds = predictor.predict(dev_set.examples[0].question, k=3)
        assert 1 <= len(preds) <= 3
        for text, prob in preds:
            assert isinstance(text, str) and text
            assert 0.0 < prob <= 1.0

    def test_results_sorted_by_probability(self, predictor, dev_set):
        preds = predictor.predict(dev_set.examples[0].question, k=3)
        probs = [p for _, p in preds]
        assert probs == sorted(probs, reverse=True)

    def test_results_unique(self, predictor, dev_set):
        preds = predictor.predict(dev_set.examples[0].question, k=3)
        texts = [t for t, _ in preds]
        assert len(texts) == len(set(texts))

    def test_predictions_are_known_training_skeletons(self, predictor, train_set, dev_set):
        """Constrained decoding only emits corpus skeletons."""
        known = {extract_skeleton(ex.sql) for ex in train_set}
        for ex in dev_set.examples[:10]:
            for text, _ in predictor.predict(ex.question, k=3):
                assert text in known

    def test_count_question_predicts_count_skeleton(self, predictor):
        preds = predictor.predict("How many singers are there?", k=3)
        assert any("COUNT" in text for text, _ in preds)

    def test_deterministic(self, predictor, dev_set):
        q = dev_set.examples[0].question
        assert predictor.predict(q, k=3) == predictor.predict(q, k=3)

    def test_top3_recall_reasonable(self, predictor, dev_set):
        """Even the compact fixture corpus should recall a fair share of
        gold skeletons in the top-3 (the full corpus does much better)."""
        hits = 0
        for ex in dev_set.examples:
            gold = extract_skeleton(ex.sql)
            texts = [t for t, _ in predictor.predict(ex.question, k=3)]
            hits += gold in texts
        assert hits / len(dev_set.examples) > 0.25


class TestTraining:
    def test_vocab_covers_training_tokens(self, predictor, train_set):
        for ex in train_set.examples[:20]:
            for token in skeleton_tokens(ex.sql):
                assert token in predictor.vocab

    def test_trie_prefixes_complete(self, predictor, train_set):
        tokens = skeleton_tokens(train_set.examples[0].sql)
        for i in range(len(tokens)):
            assert tokens[i] in predictor.trie[tuple(tokens[:i])]


def reference_steps(model, sequences):
    """``(prev, prev2, cues, position, n_tables, target)`` per step."""
    for tokens, cues, n_tables in sequences:
        prev, prev2 = BOS, BOS
        for position, token in enumerate([*tokens, EOS]):
            yield prev, prev2, cues, position, n_tables, model.vocab.index(token)
            prev2, prev = prev, token


class TestTrainer:
    def test_weights_are_bit_identical(self, predictor):
        digest = hashlib.sha256(predictor.weights.tobytes()).hexdigest()
        assert predictor.weights.dtype == np.float32
        assert digest == SKELETON_WEIGHTS_SHA256

    def test_minibatch_equals_step_features(self, predictor, train_set):
        sequences, _, _ = skeleton_training_data(train_set)
        # One long sequence over a wide schema reaches the clipped
        # position (> 40) and table-count (> 4) features.
        long_tokens = [predictor.vocab[2 + i % 5] for i in range(45)]
        cues = question_cues("How many singers are older than 40?")
        sequences = sequences + [(long_tokens, cues, 6.0)]
        steps = list(reference_steps(predictor, sequences))
        assert any(s[3] == 0 and s[:2] == (BOS, BOS) for s in steps)
        assert any(s[3] > 40 for s in steps)
        assert any(s[4] > 4 for s in steps)

        table = _StepTable.build(predictor, sequences)
        assert table.target.tolist() == [s[-1] for s in steps]
        order = np.random.default_rng(0).permutation(len(steps))
        for start in range(0, len(steps), 256):
            idx = order[start : start + 256]
            expected = np.stack(
                [predictor._step_features(*steps[i][:-1]) for i in idx]
            )
            got = table.minibatch(idx)
            assert got.dtype == expected.dtype == np.float32
            assert np.array_equal(got, expected)

    def test_fit_does_not_hold_the_design_matrix(self, train_set):
        """Peak allocation stays under a quarter of the full (steps x dim)
        float32 matrix.  The trainer does hold one minibatch at a time,
        and on this small corpus a default 256-row minibatch alone is 14%
        of that matrix, so the fit runs with 32-row minibatches; a full
        design matrix would still exceed the bound fourfold."""
        sequences, vocab, trie = skeleton_training_data(train_set)
        model = SkeletonPredictor(vocab=vocab, trie=trie)
        n_steps = sum(len(tokens) + 1 for tokens, _, _ in sequences)
        tracemalloc.start()
        try:
            model.fit(sequences, epochs=2, batch_size=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_steps * model.dim * 4 / 4
