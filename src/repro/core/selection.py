"""Demonstration selection — Algorithm 1 of the paper.

The preferential matching sequence ``I`` is a 4×k matrix of match lists
(rows = abstraction levels, columns = top-k predicted skeletons, row-major
order).  Selection proceeds in rounds: with budget ``p`` (starting at p₀
and grown by Increase-Generalization each round), one demonstration is
popped from each of the first ``p`` non-exhausted cells; duplicates are
skipped.  Lower abstraction levels and higher-probability skeletons are
preferred, exactly as Figure 8 illustrates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.automaton import AutomatonIndex
from repro.core.config import PurpleConfig


def select_demonstrations(
    index: AutomatonIndex,
    predicted_skeletons: list,
    config: PurpleConfig,
    rng: Optional[np.random.Generator] = None,
    max_demos: Optional[int] = None,
) -> list:
    """Run Algorithm 1 over the preferential matching matrix ``I``.

    :param index: the four-level
        :class:`~repro.core.automaton.AutomatonIndex` over the
        demonstration pool, built by ``AutomatonIndex.build``.
    :param predicted_skeletons: list of
        :class:`~repro.core.skeleton_prediction.PredictedSkeleton`,
        best (highest-probability) first — the columns of ``I``.
    :param config: supplies the round budget ``p0``, the
        Increase-Generalization schedule, and the Figure-12 noise knobs
        (``mask_levels`` hides the finest abstraction rows,
        ``drop_skeleton_prob`` randomly discards one predicted skeleton).
    :param rng: numpy ``Generator`` consumed only by the noise knobs;
        may be ``None`` when both knobs are off.
    :param max_demos: optional hard cap; selection stops as soon as this
        many demonstrations are chosen.
    :return: demonstration-pool indices in priority order (most relevant
        first, no duplicates).  Indices refer to positions in the pool
        the ``index`` was built from.
    """
    skeletons = list(predicted_skeletons)
    if config.drop_skeleton_prob > 0 and rng is not None and len(skeletons) > 1:
        if rng.random() < config.drop_skeleton_prob:
            drop = int(rng.integers(0, len(skeletons)))
            skeletons.pop(drop)

    levels = [lvl for lvl in (1, 2, 3, 4) if lvl > config.mask_levels]
    # Build the preferential matching sequence I (row-major: level, then
    # skeleton rank).
    cells = [
        index.match(level, skeleton.tokens)
        for level in levels
        for skeleton in skeletons
    ]

    selected: list = []
    chosen: set = set()
    p = config.p0
    iteration = 0
    # Each non-exhausted cell as [cell, position of its next demonstration,
    # length]: walking an index leaves the cell lists untouched.
    active = [[cell, 0, len(cell)] for cell in cells if cell]
    while active:
        for cursor in active[:p]:
            cell, position, length = cursor
            while position < length:
                demo = cell[position]
                position += 1
                if demo not in chosen:
                    chosen.add(demo)
                    selected.append(demo)
                    break
            cursor[1] = position
            if max_demos is not None and len(selected) >= max_demos:
                return selected
        active = [cursor for cursor in active if cursor[1] < cursor[2]]
        p = config.generalization_step(p, iteration)
        iteration += 1
    return selected
