"""The four-level automaton over demonstration skeletons (§IV-C1/C2).

Each abstraction level gets its own automaton: a deterministic trie whose
states are token-sequence prefixes, with ``<START>``/``<END>`` sentinels.
The ``<END>`` state of each accepted sequence stores the indices of the
demonstrations whose skeleton reduces to that sequence, so matching a
predicted skeleton retrieves all demonstrations sharing the identical
state sequence in O(sequence length).

Construction has two entry points: :meth:`AutomatonIndex.build` parses a
pool of raw SQL strings (the cold path), and
:meth:`AutomatonIndex.from_skeletons` consumes detail-level skeleton
token sequences that were parsed earlier — the warm path used by
:mod:`repro.store` when loading a persisted demonstration store, which
skips SQL parsing entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sqlkit.abstraction import abstract_tokens
from repro.sqlkit.skeleton import skeleton_tokens

START = "<START>"
END = "<END>"


@dataclass
class LevelAutomaton:
    """The automaton at one abstraction level."""

    level: int
    _transitions: dict = field(default_factory=dict)  # prefix -> set(next)
    _end_states: dict = field(default_factory=dict)   # sequence -> [demo idx]

    def add(self, tokens: tuple, demo_index: int) -> None:
        """Accept one demonstration's skeleton sequence into the automaton.

        Every prefix of ``tokens`` becomes a state with a transition on
        the following token, the full sequence transitions to ``<END>``,
        and ``demo_index`` is appended to that end state's demonstration
        list — so demonstrations sharing a skeleton accumulate on one
        state in insertion order.

        :param tokens: the skeleton token sequence, already abstracted
            to this automaton's level.
        :param demo_index: position of the demonstration in its pool.
        """
        sequence = tuple(tokens)
        for i in range(len(sequence)):
            self._transitions.setdefault(sequence[:i], set()).add(sequence[i])
        self._transitions.setdefault(sequence, set()).add(END)
        self._end_states.setdefault(sequence, []).append(demo_index)

    def match(self, tokens: tuple) -> list:
        """Demonstration indices whose state sequence is identical.

        Returns an empty list when the sequence is absent (§IV-C2).
        """
        return list(self._end_states.get(tuple(tokens), []))

    def accepts(self, tokens: tuple) -> bool:
        """Whether the token sequence is an accepted end state."""
        return tuple(tokens) in self._end_states

    @property
    def state_count(self) -> int:
        """Number of distinct ``<END>`` states (accepted sequences)."""
        return len(self._end_states)


@dataclass
class AutomatonIndex:
    """All four level automatons over one demonstration pool."""

    levels: dict = field(default_factory=dict)  # level -> LevelAutomaton

    @staticmethod
    def build(demo_sqls: list) -> "AutomatonIndex":
        """Construct from the demonstration pool's gold SQL strings.

        This is the cold path: every SQL string is tokenized and parsed
        into its detail-level skeleton, then abstracted at all four
        levels.  Pools that are indexed repeatedly should be persisted
        with :class:`repro.store.DemoStore`, whose load path feeds
        :meth:`from_skeletons` instead.

        :param demo_sqls: gold SQL strings, in pool order (the position
            of each string becomes its demonstration index).
        :return: the populated four-level index.
        """
        return AutomatonIndex.from_skeletons(
            skeleton_tokens(sql) for sql in demo_sqls
        )

    @staticmethod
    def from_skeletons(detail_skeletons) -> "AutomatonIndex":
        """Construct from precomputed detail-level skeleton sequences.

        The warm path: no SQL parsing happens here — only the cheap
        level-2..4 token abstractions and trie insertion.  Equivalent to
        :meth:`build` whenever ``detail_skeletons[i] ==
        skeleton_tokens(demo_sqls[i])``.

        :param detail_skeletons: iterable of detail-level (level-1)
            skeleton token sequences, in pool order.
        :return: the populated four-level index.
        """
        index = AutomatonIndex(
            levels={lvl: LevelAutomaton(level=lvl) for lvl in (1, 2, 3, 4)}
        )
        for demo_index, tokens in enumerate(detail_skeletons):
            tokens = list(tokens)
            for lvl in (1, 2, 3, 4):
                index.levels[lvl].add(abstract_tokens(tokens, lvl), demo_index)
        return index

    def match(self, level: int, detail_tokens: tuple) -> list:
        """Match a detail-level skeleton at the given abstraction level.

        :param level: abstraction level 1 (detail) .. 4 (clause); the
            detail tokens are abstracted to it before lookup.
        :param detail_tokens: a detail-level skeleton token sequence as
            produced by :func:`repro.sqlkit.skeleton.skeleton_tokens`.
        :return: demonstration indices stored on the matching end state,
            in insertion order; empty when no demonstration's skeleton
            abstracts to the same sequence.
        """
        abstracted = abstract_tokens(list(detail_tokens), level)
        return self.levels[level].match(abstracted)

    def end_state_counts(self) -> dict:
        """Distinct end-state counts per level (the paper reports
        912:708:363:59 for Spider's training set)."""
        return {lvl: automaton.state_count for lvl, automaton in self.levels.items()}
