"""Tests for gold-SQL schema-item label extraction."""

import numpy as np
import pytest

from repro.core import Purple, PurpleConfig
from repro.core.prompt import PromptBuilder
from repro.llm import MockLLM, profile_by_name
from repro.plm import labels, used_schema_items
from repro.plm.classifier import build_training_matrix
from repro.plm.labels import dataset_used_items
from repro.plm.skeleton_model import skeleton_training_data
from repro.schema import Column, ForeignKey, Schema, Table


@pytest.fixture
def schema():
    return Schema(
        db_id="tv",
        tables=[
            Table(
                name="tv_channel",
                primary_key="id",
                columns=[Column("id", "integer"), Column("country"), Column("name")],
            ),
            Table(
                name="cartoon",
                primary_key="id",
                columns=[
                    Column("id", "integer"),
                    Column("title"),
                    Column("channel", "integer"),
                ],
            ),
        ],
        foreign_keys=[ForeignKey("cartoon", "channel", "tv_channel", "id")],
    )


class TestUsedItems:
    def test_single_table(self, schema):
        tables, columns = used_schema_items(
            "SELECT name FROM tv_channel WHERE country = 'USA'", schema
        )
        assert tables == {"tv_channel"}
        assert columns == {("tv_channel", "name"), ("tv_channel", "country")}

    def test_alias_resolution(self, schema):
        tables, columns = used_schema_items(
            "SELECT T1.title FROM cartoon AS T1 JOIN tv_channel AS T2 "
            "ON T1.channel = T2.id",
            schema,
        )
        assert tables == {"cartoon", "tv_channel"}
        assert ("cartoon", "title") in columns
        assert ("cartoon", "channel") in columns
        assert ("tv_channel", "id") in columns

    def test_subquery_scope(self, schema):
        tables, columns = used_schema_items(
            "SELECT country FROM tv_channel WHERE id NOT IN "
            "(SELECT channel FROM cartoon)",
            schema,
        )
        assert tables == {"tv_channel", "cartoon"}
        assert ("cartoon", "channel") in columns
        assert ("tv_channel", "country") in columns

    def test_compound_query(self, schema):
        tables, _ = used_schema_items(
            "SELECT country FROM tv_channel EXCEPT SELECT title FROM cartoon",
            schema,
        )
        assert tables == {"tv_channel", "cartoon"}

    def test_unparseable_sql_is_empty(self, schema):
        assert used_schema_items("garbage", schema) == (set(), set())

    def test_unknown_tables_ignored(self, schema):
        tables, columns = used_schema_items("SELECT x FROM mystery", schema)
        assert tables == set()


class TestDatasetUsedItems:
    def test_purple_fit_extracts_each_demonstration_once(self, train_set,
                                                          monkeypatch):
        calls = []
        extract = labels.used_schema_items

        def counting(sql, schema):
            calls.append(sql)
            return extract(sql, schema)

        monkeypatch.setattr(labels, "used_schema_items", counting)
        Purple(
            MockLLM(profile_by_name("gpt4")),
            PurpleConfig(classifier_epochs=1, skeleton_epochs=1),
        ).fit(train_set)
        assert calls == [ex.sql for ex in train_set]

    def test_shared_labels_match_each_consumer_alone(self, train_set):
        pool = train_set.subset(40)
        used = dataset_used_items(pool)
        for alone, shared in zip(build_training_matrix(pool),
                                 build_training_matrix(pool, used)):
            np.testing.assert_array_equal(alone, shared)
        sequences, vocab, trie = skeleton_training_data(pool)
        shared_sequences, shared_vocab, shared_trie = (
            skeleton_training_data(pool, used)
        )
        assert (vocab, trie) == (shared_vocab, shared_trie)
        for (tokens, cues, n), (s_tokens, s_cues, s_n) in zip(
                sequences, shared_sequences):
            assert (tokens, n) == (s_tokens, s_n)
            np.testing.assert_array_equal(cues, s_cues)
        alone, shared = PromptBuilder(pool), PromptBuilder(pool, used_items=used)
        assert [alone.demo_block(i) for i in range(len(alone))] == [
            shared.demo_block(i) for i in range(len(shared))
        ]
