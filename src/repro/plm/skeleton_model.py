"""The skeleton predictor (§IV-B) — a trainable conditional sequence model.

Stands in for the paper's fine-tuned T5-3B: a softmax-regression token
model conditioned on (previous two skeleton tokens, question cue
indicators, schema-size features), trained on the demonstration corpus's
gold skeletons and decoded with a genuine beam search that returns the
top-k skeletons with their sequence probabilities — exactly the interface
(and the error modes) PURPLE's demonstration selection consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.plm.features import CUE_DIM, question_cues
from repro.plm.labels import used_schema_items
from repro.schema import Schema
from repro.spider.dataset import Dataset
from repro.sqlkit.skeleton import skeleton_tokens
from repro.utils.rng import derive_rng

BOS = "<s>"
EOS = "</s>"

_MAX_LEN = 60


@dataclass
class SkeletonPredictor:
    """Feature-conditioned softmax sequence model over skeleton tokens.

    Decoding is constrained by a prefix trie over the training skeletons
    (in the spirit of PICARD's constrained decoding): at each step, only
    tokens that continue some known skeleton are allowed and the step
    distribution renormalizes over them.  This gives the model the
    fine-tuned-PLM property the paper relies on — it emits syntactically
    valid compositions, but cannot recall a composition absent from its
    training corpus (the recall gap the four-level abstraction of §IV-C
    is designed to absorb).
    """

    vocab: list = field(default_factory=list)
    weights: Optional[np.ndarray] = None  # (V, D)
    trie: Optional[dict] = None  # tuple(prefix) -> set of allowed next tokens
    # N-best reranker: a multinomial classifier over whole training
    # skeletons re-scores the beam's candidates (the fine-tuned model's
    # sequence-level discrimination; cf. the N-best reranking line of work
    # the paper cites [53]).
    class_skeletons: list = field(default_factory=list)
    class_weights: Optional[np.ndarray] = None  # (C, CUE_DIM + 1)

    def __post_init__(self) -> None:
        self._index = {tok: i for i, tok in enumerate(self.vocab)}
        self._class_index = {s: i for i, s in enumerate(self.class_skeletons)}

    # -- feature layout -------------------------------------------------------

    @property
    def dim(self) -> int:
        """Feature-vector dimensionality."""
        v = len(self.vocab)
        return 2 * v + CUE_DIM + 3  # prev, prev2, cues, bias, pos, n_tables

    def _step_features(
        self,
        prev: str,
        prev2: str,
        cues: np.ndarray,
        position: int,
        n_tables: float,
    ) -> np.ndarray:
        v = len(self.vocab)
        x = np.zeros(self.dim, dtype=np.float32)
        prev_idx = self._index.get(prev, 0)
        x[prev_idx] = 1.0
        x[v + self._index.get(prev2, 0)] = 1.0
        x[2 * v : 2 * v + CUE_DIM] = cues
        x[2 * v + CUE_DIM] = 1.0  # bias
        x[2 * v + CUE_DIM + 1] = min(position, 40) / 40.0
        x[2 * v + CUE_DIM + 2] = min(n_tables, 4) / 4.0
        return x

    # -- inference -------------------------------------------------------------

    def token_distribution(self, x: np.ndarray) -> np.ndarray:
        """Softmax next-token distribution for features x."""
        logits = self.weights @ x
        logits -= logits.max()
        p = np.exp(logits)
        return p / p.sum()

    def predict(
        self,
        question: str,
        schema: Optional[Schema] = None,
        k: int = 3,
        beam_width: Optional[int] = None,
    ) -> list:
        """Top-k skeletons via beam search: ``[(skeleton_string, prob)]``.

        ``beam_width`` defaults to ``max(2 * k, 6)``; sequence probability
        is the product of step probabilities (§IV-B).
        """
        assert self.weights is not None, "predictor is not trained"
        cues = question_cues(question)
        n_tables = float(len(schema.tables)) if schema is not None else 2.0
        width = beam_width or max(2 * k, 6)

        beams = [((BOS, BOS), [], 0.0)]  # (context, tokens, logprob)
        finished = []
        for position in range(_MAX_LEN):
            candidates = []
            for (prev, prev2), tokens, logprob in beams:
                x = self._step_features(prev, prev2, cues, position, n_tables)
                dist = self.token_distribution(x)
                allowed = self._allowed_next(tokens)
                if allowed is not None:
                    mask = np.zeros_like(dist)
                    for token in allowed:
                        idx = self._index.get(token)
                        if idx is not None:
                            mask[idx] = 1.0
                    dist = dist * mask
                    total = dist.sum()
                    if total <= 0:
                        continue
                    dist = dist / total
                top = np.argsort(-dist)[: width + 2]
                for ti in top:
                    if dist[int(ti)] <= 0:
                        break
                    token = self.vocab[int(ti)]
                    if token == BOS:
                        continue
                    new_logprob = logprob + float(np.log(dist[int(ti)] + 1e-12))
                    if token == EOS:
                        if tokens:
                            finished.append((tokens, new_logprob))
                        continue
                    candidates.append(
                        ((token, prev), tokens + [token], new_logprob)
                    )
            if not candidates:
                break
            candidates.sort(key=lambda c: -c[2])
            beams = candidates[:width]
            # Stop only when no live beam can still beat the k-th finished
            # hypothesis (log-probabilities only decrease with length).
            target = max(3 * k, 8)
            if len(finished) >= target:
                kth_best = sorted((lp for _, lp in finished), reverse=True)[
                    target - 1
                ]
                if beams[0][2] <= kth_best:
                    break
        finished.sort(key=lambda f: -f[1])
        candidates = []
        seen = set()
        for tokens, logprob in finished:
            text = " ".join(tokens)
            if text in seen:
                continue
            seen.add(text)
            candidates.append((text, logprob))
            if len(candidates) >= max(3 * k, 8):
                break
        candidates = self._rerank(candidates, cues)
        return [(text, float(np.exp(lp))) for text, lp in candidates[:k]]

    def _rerank(self, candidates: list, cues: np.ndarray) -> list:
        """Blend beam log-probabilities with the sequence classifier's."""
        if self.class_weights is None or not candidates:
            return candidates
        x = np.concatenate([cues, [1.0]])
        logits = self.class_weights @ x
        logits -= logits.max()
        log_z = float(np.log(np.exp(logits).sum()))
        rescored = []
        for text, beam_lp in candidates:
            idx = self._class_index.get(text)
            class_lp = float(logits[idx]) - log_z if idx is not None else -20.0
            rescored.append((text, beam_lp + 0.3 * class_lp))
        rescored.sort(key=lambda c: -c[1])
        return rescored

    def _allowed_next(self, tokens: list) -> Optional[set]:
        """Tokens that continue some training skeleton (None = unconstrained)."""
        if self.trie is None:
            return None
        return self.trie.get(tuple(tokens), set())

    # -- training ---------------------------------------------------------------

    def fit(
        self,
        sequences: list,
        epochs: int = 12,
        lr: float = 0.4,
        batch_size: int = 256,
        seed: int = 0,
    ) -> "SkeletonPredictor":
        """Train on ``[(tokens, cue_vector, n_tables)]`` sequences.

        Steps are held once as compact index arrays (:class:`_StepTable`).
        """
        table = _StepTable.build(self, sequences)
        rng = derive_rng(seed, "skeleton_model")
        v = len(self.vocab)
        weights = np.zeros((v, self.dim), dtype=np.float32)
        n = len(table.target)
        for epoch in range(epochs):
            step_lr = lr
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb = table.minibatch(idx)
                yb = table.target[idx]
                logits = xb @ weights.T
                logits -= logits.max(axis=1, keepdims=True)
                p = np.exp(logits)
                p /= p.sum(axis=1, keepdims=True)
                p[np.arange(len(idx)), yb] -= 1.0
                grad = p.T @ xb / len(idx)
                weights -= step_lr * grad
        self.weights = weights
        return self

    def fit_reranker(
        self,
        sequences: list,
        epochs: int = 400,
        lr: float = 1.0,
        seed: int = 0,
    ) -> "SkeletonPredictor":
        """Train the sequence-level classifier on (cues → skeleton)."""
        class_list = sorted({" ".join(tokens) for tokens, _, _ in sequences})
        self.class_skeletons = class_list
        self._class_index = {s: i for i, s in enumerate(class_list)}
        X = np.stack(
            [np.concatenate([cues, [1.0]]) for _, cues, _ in sequences]
        ).astype(np.float32)
        y = np.array(
            [self._class_index[" ".join(tokens)] for tokens, _, _ in sequences]
        )
        c, d = len(class_list), X.shape[1]
        weights = np.zeros((c, d), dtype=np.float32)
        n = len(y)
        for epoch in range(epochs):
            logits = X @ weights.T
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(n), y] -= 1.0
            grad = p.T @ X / n
            weights -= lr / (1.0 + 0.01 * epoch) * grad
        self.class_weights = weights
        return self


@dataclass(frozen=True)
class _StepTable:
    """Every training step of :meth:`SkeletonPredictor.fit`, built once.

    One row per (sequence, position) step: the sequence id (into the
    ``(n_sequences, CUE_DIM)`` cue table), the one-hot columns of the
    previous two tokens, the scaled position and table-count features,
    and the target token index.  :meth:`minibatch` scatters these into
    exactly the float32 rows :meth:`SkeletonPredictor._step_features`
    builds, without ever holding the full ``(steps, dim)`` matrix.
    """

    seq: np.ndarray  # (steps,) int32 sequence id
    prev: np.ndarray  # (steps,) int32 column of the previous token
    prev2: np.ndarray  # (steps,) int32 column of the token before it
    position: np.ndarray  # (steps,) float32 min(position, 40) / 40
    n_tables: np.ndarray  # (steps,) float32 min(n_tables, 4) / 4
    target: np.ndarray  # (steps,) int32 next-token index
    cues: np.ndarray  # (n_sequences, CUE_DIM) float32
    vocab_size: int

    @staticmethod
    def build(model: SkeletonPredictor, sequences: list) -> "_StepTable":
        """Index every step of ``[(tokens, cue_vector, n_tables)]``."""
        bos = model._index[BOS]
        lengths = np.array(
            [len(tokens) + 1 for tokens, _, _ in sequences], dtype=np.int64
        )
        target = np.array(
            [
                model._index[token]
                for tokens, _, _ in sequences
                for token in [*tokens, EOS]
            ],
            dtype=np.int32,
        )
        seq = np.repeat(np.arange(len(sequences), dtype=np.int32), lengths)
        first = np.cumsum(lengths) - lengths  # each sequence's first step
        position = np.arange(len(target)) - first[seq]
        prev = np.roll(target, 1)
        prev[first] = bos
        prev2 = np.roll(prev, 1)
        prev2[first] = bos
        n_tables = np.array([n for _, _, n in sequences], dtype=float)
        cues = np.array([c for _, c, _ in sequences], dtype=np.float32)
        return _StepTable(
            seq=seq,
            prev=prev,
            prev2=prev2 + len(model.vocab),
            position=(np.minimum(position, 40) / 40.0).astype(np.float32),
            n_tables=(np.minimum(n_tables, 4) / 4.0).astype(np.float32)[seq],
            target=target,
            cues=cues.reshape(len(sequences), CUE_DIM),
            vocab_size=len(model.vocab),
        )

    def minibatch(self, idx: np.ndarray) -> np.ndarray:
        """The float32 feature rows of steps ``idx``, one per step."""
        cue_start = 2 * self.vocab_size
        bias = cue_start + CUE_DIM
        rows = np.arange(len(idx))
        xb = np.zeros((len(idx), bias + 3), dtype=np.float32)
        xb[rows, self.prev[idx]] = 1.0
        xb[rows, self.prev2[idx]] = 1.0
        xb[:, cue_start:bias] = self.cues[self.seq[idx]]
        xb[:, bias] = 1.0
        xb[:, bias + 1] = self.position[idx]
        xb[:, bias + 2] = self.n_tables[idx]
        return xb


def skeleton_training_data(dataset: Dataset) -> tuple:
    """``(sequences, vocab, trie)`` for training on a dataset's skeletons.

    ``sequences`` are ``[(tokens, cue_vector, n_tables)]``.  The
    schema-size feature uses the number of *gold-used* tables, matching
    the pruned schemas the model sees at inference time.
    """
    sequences = []
    vocab_set = set()
    trie: dict = {}
    for ex in dataset:
        tokens = skeleton_tokens(ex.sql)
        vocab_set.update(tokens)
        cues = question_cues(ex.question)
        used_tables, _ = used_schema_items(
            ex.sql, dataset.database(ex.db_id).schema
        )
        sequences.append((tokens, cues, float(max(len(used_tables), 1))))
        for i in range(len(tokens)):
            trie.setdefault(tuple(tokens[:i]), set()).add(tokens[i])
        trie.setdefault(tuple(tokens), set()).add(EOS)
    vocab = [BOS, EOS] + sorted(vocab_set)
    return sequences, vocab, trie


def train_skeleton_predictor(
    dataset: Dataset, epochs: int = 12, seed: int = 0, rerank: bool = False
) -> SkeletonPredictor:
    """Build vocabulary and train the predictor on a dataset's skeletons."""
    sequences, vocab, trie = skeleton_training_data(dataset)
    predictor = SkeletonPredictor(vocab=vocab, trie=trie)
    predictor.fit(sequences, epochs=epochs, seed=seed)
    if rerank:
        predictor.fit_reranker(sequences, seed=seed)
    return predictor
