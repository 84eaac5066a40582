"""Tests for Algorithm 1 (demonstration selection)."""

import numpy as np
import pytest

from repro.core.automaton import AutomatonIndex
from repro.core.config import PurpleConfig
from repro.core.selection import select_demonstrations
from repro.core.skeleton_prediction import PredictedSkeleton
from repro.sqlkit.skeleton import skeleton_tokens

DEMOS = [
    "SELECT name FROM singer",                                   # 0
    "SELECT name FROM singer WHERE age > 30",                    # 1
    "SELECT name FROM singer WHERE age >= 30",                   # 2
    "SELECT title FROM album WHERE year > 1999",                 # 3 same as 1
    "SELECT COUNT(*) FROM singer",                               # 4
    "SELECT a, COUNT(*) FROM t GROUP BY a",                      # 5
]


@pytest.fixture(scope="module")
def index():
    return AutomatonIndex.build(DEMOS)


def predicted(*sqls):
    n = len(sqls)
    return [
        PredictedSkeleton(
            tokens=tuple(skeleton_tokens(sql)), probability=1.0 / (i + 1)
        )
        for i, sql in enumerate(sqls)
    ]


class TestSelection:
    def test_detail_match_selected_first(self, index):
        order = select_demonstrations(
            index, predicted("SELECT x FROM y WHERE z > 1"), PurpleConfig()
        )
        # Demos 1 and 3 share the exact detail skeleton; they come first.
        assert set(order[:2]) == {1, 3}

    def test_no_duplicates(self, index):
        order = select_demonstrations(
            index, predicted("SELECT x FROM y WHERE z > 1"), PurpleConfig()
        )
        assert len(order) == len(set(order))

    def test_higher_probability_skeleton_preferred(self, index):
        order = select_demonstrations(
            index,
            predicted("SELECT COUNT(*) FROM t", "SELECT x FROM y WHERE z > 1"),
            PurpleConfig(),
        )
        assert order[0] == 4  # the top-probability skeleton's detail match

    def test_structure_level_pulls_cousins(self, index):
        order = select_demonstrations(
            index, predicted("SELECT x FROM y WHERE z > 1"), PurpleConfig()
        )
        # The >= demo (2) matches only at structure level, but must appear.
        assert 2 in order

    def test_empty_prediction(self, index):
        assert select_demonstrations(index, [], PurpleConfig()) == []

    def test_max_demos_cap(self, index):
        order = select_demonstrations(
            index,
            predicted("SELECT x FROM y WHERE z > 1"),
            PurpleConfig(),
            max_demos=2,
        )
        assert len(order) == 2

    def test_unseen_skeleton_uses_abstraction(self, index):
        # Not present at detail level; structure/clause levels still match.
        order = select_demonstrations(
            index, predicted("SELECT x FROM y WHERE z >= 1 AND q >= 2"),
            PurpleConfig(),
        )
        assert order  # fuzzification found something


class TestNoiseKnobs:
    def test_mask_levels_ignores_detail(self, index):
        config = PurpleConfig(mask_levels=3)
        order = select_demonstrations(
            index, predicted("SELECT x FROM y WHERE z > 1"), config
        )
        # With only clause-level matching, all WHERE-less demos of the same
        # clause shape also appear; detail priority is gone but matching
        # still works.
        assert order

    def test_drop_skeleton_prob_one_drops_one(self, index):
        config = PurpleConfig(drop_skeleton_prob=1.0)
        preds = predicted("SELECT COUNT(*) FROM t", "SELECT x FROM y WHERE z > 1")
        rng = np.random.default_rng(0)
        order = select_demonstrations(index, preds, config, rng=rng)
        assert order  # still selects from the surviving skeleton


class TestGeneralizationSchedules:
    def test_linear_schedule(self):
        config = PurpleConfig(generalization="linear-2", p0=1)
        assert config.generalization_step(1, 0) == 3

    def test_exp_schedule(self):
        config = PurpleConfig(generalization="exp-2", p0=1)
        assert config.generalization_step(2, 1) == 4

    def test_unknown_schedule_raises(self):
        config = PurpleConfig(generalization="bogus-1")
        with pytest.raises(ValueError):
            config.generalization_step(1, 0)
