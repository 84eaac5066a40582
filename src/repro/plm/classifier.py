"""The schema-item relevance classifier (RESDSQL-style, §IV-A1).

A logistic-regression model over :func:`schema_item_features`, trained
with *focal loss* (the paper follows RESDSQL in using it, because relevant
items are a small minority of all schema items).  Pure numpy batch
gradient descent — small data, seconds to train, fully deterministic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.plm.features import (
    SCHEMA_FEATURE_DIM,
    SchemaFeaturizer,
    schema_item_features,
)
from repro.plm.labels import dataset_used_items
from repro.schema import Database, Schema
from repro.spider.dataset import Dataset
from repro.utils.rng import derive_rng

#: Featurized schemas one classifier keeps; the oldest is dropped past this.
_MAX_FEATURIZERS = 64


@dataclass
class SchemaItemClassifier:
    """Binary relevance classifier for schema items."""

    weights: np.ndarray = field(
        default_factory=lambda: np.zeros(SCHEMA_FEATURE_DIM)
    )
    gamma: float = 2.0  # focal-loss focusing parameter
    alpha: float = 0.5  # focal-loss class balance
    # (schema, database) -> featurizer, keyed by object identity; see
    # _featurizer.
    _featurizers: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Sigmoid scores for a (n, d) feature matrix or a single vector."""
        features = np.atleast_2d(features)
        z = features @ self.weights
        return 1.0 / (1.0 + np.exp(-z))

    def score_item(
        self,
        question: str,
        schema: Schema,
        table: str,
        column: str = "",
        database: Database = None,
    ) -> float:
        """Relevance probability for one schema item."""
        vector = schema_item_features(question, schema, table, column, database)
        return float(self.predict_proba(vector)[0])

    def score_schema(
        self, question: str, schema: Schema, database: Database = None
    ) -> tuple:
        """Probabilities for every item: ``(table_probs, column_probs)``.

        ``table_probs``: {table_key: p}; ``column_probs``:
        {(table_key, column_key): p}.
        """
        table_probs = {}
        column_probs = {}
        for item, vector in self._featurizer(schema, database).rows(question):
            # Row by row, as score_item scores: a batched matrix product
            # can differ from it in the last bit.
            p = float(self.predict_proba(vector)[0])
            if item.column:
                column_probs[(item.table, item.column)] = p
            else:
                table_probs[item.table] = p
        return table_probs, column_probs

    def _featurizer(self, schema: Schema, database: Database) -> SchemaFeaturizer:
        """The featurizer of this ``(schema, database)`` pair of objects,
        built on first use: its items (and their scans of up to 50
        values per column) depend only on the schema and the rows.

        Keyed by object identity, not ``db_id``: two loads of one
        database are two entries.  An entry holds its objects, so their
        ids cannot be reused while it is cached.
        """
        key = (id(schema), id(database))
        with self._lock:
            entry = self._featurizers.get(key)
            if entry is None:
                if len(self._featurizers) >= _MAX_FEATURIZERS:
                    del self._featurizers[next(iter(self._featurizers))]
                entry = (schema, database, SchemaFeaturizer(schema, database))
                self._featurizers[key] = entry
        return entry[2]

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        epochs: int = 300,
        lr: float = 0.5,
        l2: float = 1e-4,
    ) -> "SchemaItemClassifier":
        """Batch gradient descent on the focal loss."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        weights = np.zeros(X.shape[1])
        n = len(y)
        g, a = self.gamma, self.alpha
        for _ in range(epochs):
            p = 1.0 / (1.0 + np.exp(-(X @ weights)))
            p = np.clip(p, 1e-7, 1 - 1e-7)
            # FL(y=1) = -a (1-p)^g log p ;  FL(y=0) = -(1-a) p^g log(1-p).
            # With p = sigmoid(z):
            #   dFL/dz (y=1) = a (1-p)^g (g p log p - (1-p))
            #   dFL/dz (y=0) = (1-a) p^g (p - g (1-p) log(1-p))
            dz_pos = a * (1 - p) ** g * (g * p * np.log(p) - (1 - p))
            dz_neg = (1 - a) * p**g * (p - g * (1 - p) * np.log(1 - p))
            dz = y * dz_pos + (1 - y) * dz_neg
            grad = (X.T @ dz) / n + l2 * weights
            weights -= lr * grad
        self.weights = weights
        return self


def build_training_matrix(dataset: Dataset,
                          used_items: Optional[list] = None) -> tuple:
    """Assemble (X, y) over all (example, schema item) pairs of a dataset.

    Rows follow the dataset order, and within an example each table,
    then its columns.  Each database's items are featurized once.
    ``used_items`` is :func:`~repro.plm.labels.dataset_used_items` of
    ``dataset`` when the caller already has it.
    """
    if used_items is None:
        used_items = dataset_used_items(dataset)
    featurizers = {}
    for ex in dataset:
        if ex.db_id not in featurizers:
            database = dataset.database(ex.db_id)
            featurizers[ex.db_id] = SchemaFeaturizer(database.schema, database)
    n_rows = sum(len(featurizers[ex.db_id].items) for ex in dataset)
    X = np.empty((n_rows, SCHEMA_FEATURE_DIM))
    y = np.empty(n_rows)
    row = 0
    for ex, (used_tables, used_columns) in zip(dataset, used_items):
        featurizer = featurizers[ex.db_id]
        for item, vector in featurizer.rows(ex.question):
            X[row] = vector
            if item.column:
                y[row] = 1.0 if (item.table, item.column) in used_columns else 0.0
            else:
                y[row] = 1.0 if item.table in used_tables else 0.0
            row += 1
    return X, y


def train_schema_classifier(
    dataset: Dataset, epochs: int = 300, seed: int = 0,
    used_items: Optional[list] = None,
) -> SchemaItemClassifier:
    """Train the relevance classifier on a dataset's gold annotations."""
    X, y = build_training_matrix(dataset, used_items)
    # Shuffle rows in place, X and y by the same draws: the matrix
    # ``X[rng.permutation(n)]`` without a second copy of it.
    derive_rng(seed, "classifier").shuffle(X)
    derive_rng(seed, "classifier").shuffle(y)
    classifier = SchemaItemClassifier()
    classifier.fit(X, y, epochs=epochs)
    return classifier
