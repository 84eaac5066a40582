"""Property-based tests for the automaton and Algorithm 1 over the real
corpus fixture."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.automaton import AutomatonIndex
from repro.core.config import PurpleConfig
from repro.core.selection import select_demonstrations
from repro.core.skeleton_prediction import PredictedSkeleton
from repro.sqlkit.abstraction import abstract_tokens
from repro.sqlkit.skeleton import skeleton_tokens


@pytest.fixture(scope="module")
def corpus_index(request):
    train = request.getfixturevalue("train_set")
    sqls = [ex.sql for ex in train]
    return AutomatonIndex.build(sqls), sqls


class TestAutomatonProperties:
    def test_every_training_skeleton_self_matches(self, corpus_index):
        index, sqls = corpus_index
        for i, sql in enumerate(sqls):
            tokens = skeleton_tokens(sql)
            for level in (1, 2, 3, 4):
                assert i in index.match(level, tokens), (sql, level)

    def test_matches_grow_with_abstraction(self, corpus_index):
        index, sqls = corpus_index
        for sql in sqls[:40]:
            tokens = skeleton_tokens(sql)
            previous: set = set()
            for level in (1, 2, 3, 4):
                current = set(index.match(level, tokens))
                assert previous <= current, (sql, level)
                previous = current

    def test_end_state_counts_monotone(self, corpus_index):
        index, _ = corpus_index
        counts = index.end_state_counts()
        assert counts[1] >= counts[2] >= counts[3] >= counts[4]


class TestSelectionProperties:
    @given(st.data())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_selection_never_duplicates_and_respects_cap(
        self, corpus_index, data
    ):
        index, sqls = corpus_index
        picks = data.draw(
            st.lists(
                st.integers(0, len(sqls) - 1), min_size=1, max_size=3, unique=True
            )
        )
        skeletons = [
            PredictedSkeleton(
                tokens=tuple(skeleton_tokens(sqls[i])),
                probability=1.0 / (rank + 1),
            )
            for rank, i in enumerate(picks)
        ]
        cap = data.draw(st.integers(1, 30))
        order = select_demonstrations(
            index, skeletons, PurpleConfig(), max_demos=cap
        )
        assert len(order) == len(set(order))
        assert len(order) <= cap
        assert all(0 <= i < len(sqls) for i in order)

    @given(st.integers(0, 200))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_first_selection_matches_top_skeleton_structure(
        self, corpus_index, pick
    ):
        index, sqls = corpus_index
        pick = pick % len(sqls)
        tokens = tuple(skeleton_tokens(sqls[pick]))
        order = select_demonstrations(
            index,
            [PredictedSkeleton(tokens=tokens, probability=1.0)],
            PurpleConfig(),
        )
        assert order, sqls[pick]
        first = order[0]
        # The first selected demonstration matches the predicted skeleton
        # exactly at the detail level.
        assert skeleton_tokens(sqls[first]) == list(tokens)
