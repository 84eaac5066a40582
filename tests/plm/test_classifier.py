"""Tests for the schema-item relevance classifier."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.plm import schema_item_features, train_schema_classifier
from repro.plm.classifier import SchemaItemClassifier, build_training_matrix
from repro.plm.labels import dataset_used_items, used_schema_items

# sha256 pins on the fixture corpus, recorded from the per-item featurizer.
CLASSIFIER_WEIGHTS_SHA256 = (
    "043ab49aaba8672651b362dfe176b2d59e5537fbd5cb675eb4e113019a33e439"
)
TRAINING_X_SHA256 = (
    "5448aba8e9392b1ca0387d259e58e7d106f814c00eafce894c52b49111816a42"
)
TRAINING_Y_SHA256 = (
    "bdf8a3f7c0950809822d90b6a5db8e27f790d861611636c9cbdecb49c573b33c"
)


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def classifier(request):
    train = request.getfixturevalue("train_set")
    return train_schema_classifier(train, epochs=200)


class TestTrainingMatrix:
    def test_matrix_shapes(self, train_set):
        small = train_set.subset(10)
        X, y = build_training_matrix(small)
        assert X.shape[0] == y.shape[0]
        assert X.shape[1] == 12
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_positives_are_minority(self, train_set):
        X, y = build_training_matrix(train_set.subset(30))
        assert 0 < y.mean() < 0.5

    def test_rows_are_each_table_then_its_columns(self, train_set):
        rows, labels = [], []
        for ex in train_set:
            db = train_set.database(ex.db_id)
            used_tables, used_columns = used_schema_items(ex.sql, db.schema)
            for tbl in db.schema.tables:
                rows.append(
                    schema_item_features(ex.question, db.schema, tbl.key, "", db)
                )
                labels.append(float(tbl.key in used_tables))
                for col in tbl.columns:
                    rows.append(
                        schema_item_features(
                            ex.question, db.schema, tbl.key, col.key, db
                        )
                    )
                    labels.append(float((tbl.key, col.key) in used_columns))
        X, y = build_training_matrix(train_set)
        assert X.dtype == y.dtype == np.float64
        assert np.array_equal(X, np.array(rows))
        assert np.array_equal(y, np.array(labels))

    def test_matrix_is_bit_identical(self, train_set):
        X, y = build_training_matrix(train_set)
        assert (sha256(X), sha256(y)) == (TRAINING_X_SHA256, TRAINING_Y_SHA256)

    def test_training_does_not_hold_an_unshuffled_copy(self, train_set,
                                                       monkeypatch):
        """When the fit starts, the traced heap holds the shuffled (X, y)
        once: an unshuffled copy kept alongside would double it."""
        X, y = build_training_matrix(train_set)
        used = dataset_used_items(train_set)
        held = []
        fit = SchemaItemClassifier.fit

        def recording_fit(self, *args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(SchemaItemClassifier, "fit", recording_fit)
        tracemalloc.start()
        try:
            train_schema_classifier(train_set, epochs=1, used_items=used)
        finally:
            tracemalloc.stop()
        assert held[0] < 1.5 * (X.nbytes + y.nbytes)


class TestFocalLossFit:
    def test_fit_separable_data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = (X[:, 1] > 0).astype(float)
        clf = SchemaItemClassifier(weights=np.zeros(3))
        clf.fit(X, y, epochs=400, lr=1.0)
        preds = clf.predict_proba(X) > 0.5
        assert (preds == y.astype(bool)).mean() > 0.95

    def test_fit_handles_imbalance(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 3))
        y = ((X[:, 0] > 1.2)).astype(float)  # ~12% positives
        clf = SchemaItemClassifier(weights=np.zeros(3))
        clf.fit(X, y, epochs=400, lr=1.0)
        positives = clf.predict_proba(X[y == 1])
        assert positives.mean() > 0.4


class TestTrainedClassifier:
    def test_weights_are_bit_identical(self, classifier):
        assert sha256(classifier.weights) == CLASSIFIER_WEIGHTS_SHA256

    def test_score_schema_equals_score_item(self, classifier, dev_set):
        for ex in dev_set:
            db = dev_set.database(ex.db_id)
            tprobs, cprobs = classifier.score_schema(ex.question, db.schema, db)
            assert list(tprobs) == [tbl.key for tbl in db.schema.tables]
            for tbl in db.schema.tables:
                assert tprobs[tbl.key] == classifier.score_item(
                    ex.question, db.schema, tbl.key, "", db
                )
                for col in tbl.columns:
                    assert cprobs[(tbl.key, col.key)] == classifier.score_item(
                        ex.question, db.schema, tbl.key, col.key, db
                    )

    def test_scores_are_probabilities(self, classifier, dev_set):
        ex = dev_set.examples[0]
        db = dev_set.database(ex.db_id)
        tprobs, cprobs = classifier.score_schema(ex.question, db.schema, db)
        assert all(0.0 <= p <= 1.0 for p in tprobs.values())
        assert all(0.0 <= p <= 1.0 for p in cprobs.values())

    def test_high_recall_on_dev(self, classifier, dev_set):
        """§IV-A: pruning must keep recall high to avoid error propagation."""
        hits = total = 0
        for ex in dev_set.examples[:40]:
            db = dev_set.database(ex.db_id)
            tprobs, _ = classifier.score_schema(ex.question, db.schema, db)
            used_tables, _ = used_schema_items(ex.sql, db.schema)
            kept = {t for t, p in tprobs.items() if p > 0.5}
            hits += len(kept & used_tables)
            total += len(used_tables)
        assert hits / total > 0.85

    def test_relevant_column_outscores_distractor(self, classifier, dev_set):
        scored = 0
        better = 0
        for ex in dev_set.examples[:40]:
            db = dev_set.database(ex.db_id)
            _, cprobs = classifier.score_schema(ex.question, db.schema, db)
            _, used_columns = used_schema_items(ex.sql, db.schema)
            if not used_columns:
                continue
            used_mean = np.mean([cprobs[c] for c in used_columns if c in cprobs])
            unused = [p for c, p in cprobs.items() if c not in used_columns]
            if unused:
                scored += 1
                if used_mean > np.mean(unused):
                    better += 1
        assert better / scored > 0.9


class TestFeaturizerCache:
    """score_schema featurizes each Database object once."""

    def _counting(self, monkeypatch):
        from repro.plm import classifier as module

        built = []
        real = module.SchemaFeaturizer

        def counting(schema, database=None):
            built.append(database)
            return real(schema, database)

        monkeypatch.setattr(module, "SchemaFeaturizer", counting)
        return built

    def test_one_featurizer_per_database_object(
        self, classifier, dev_set, monkeypatch
    ):
        from repro.schema import Database

        built = self._counting(monkeypatch)
        fresh = SchemaItemClassifier(weights=classifier.weights)
        db = dev_set.database(dev_set.examples[0].db_id)
        questions = [ex.question for ex in dev_set if ex.db_id == db.db_id]
        scores = [fresh.score_schema(q, db.schema, db) for q in questions]
        assert len(questions) > 1 and [id(b) for b in built] == [id(db)]
        # Same db_id, another object: keyed by identity, so built anew.
        twin = Database(schema=db.schema, rows=db.rows)
        assert fresh.score_schema(questions[0], twin.schema, twin) == scores[0]
        assert [id(b) for b in built] == [id(db), id(twin)]
        assert scores == [
            classifier.score_schema(q, db.schema, db) for q in questions
        ]

    def test_cache_is_bounded(self, classifier, dev_set, monkeypatch):
        from repro.plm import classifier as module
        from repro.schema import Database

        monkeypatch.setattr(module, "_MAX_FEATURIZERS", 2)
        fresh = SchemaItemClassifier(weights=classifier.weights)
        db = dev_set.database(dev_set.examples[0].db_id)
        copies = [Database(schema=db.schema, rows=db.rows) for _ in range(3)]
        for copy in copies:
            fresh.score_schema("q", copy.schema, copy)
        kept = [entry[1] for entry in fresh._featurizers.values()]
        assert [id(d) for d in kept] == [id(d) for d in copies[1:]]
