"""Contrastive-learning numerics: positive pairs and the NT-Xent loss.

The loss consumes a batch of ``2n`` already-projected embedding vectors
where rows ``(2k, 2k+1)`` are the two augmented views of instance ``k``.
For an ordered positive pair ``(i, j)`` the per-pair loss is the cross
entropy of picking ``j`` among all other rows by cosine similarity at
temperature ``tau``::

    loss(i, j) = -log( exp(sim(i, j)/tau) / sum_{k != i} exp(sim(i, k)/tau) )

and the batch loss averages over all ``2n`` ordered pairs (both directions
of every pair).  Everything here is a pure numpy computation - encoders and
projection heads live elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .chains import Chain, apply_chain
from .formula import Formula


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = 0.5

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")


DEFAULT_CONTRASTIVE = ContrastiveConfig()


@dataclass(frozen=True)
class EmbeddingBatch:
    """``2n`` embedding vectors of equal dimension; rows ``2k`` and ``2k+1``
    are positives of each other."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.vectors, dtype=float)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array of row vectors")
        if arr.shape[0] < 2 or arr.shape[0] % 2:
            raise ValueError("batch size must be even and at least 2")
        if arr.shape[1] < 1:
            raise ValueError("embedding dimension must be at least 1")
        if not np.isfinite(arr).all():
            raise ValueError("embeddings must be finite")
        object.__setattr__(self, "vectors", arr)


def make_pair(formula: Formula, chain1: Chain, chain2: Chain) -> tuple[Formula, Formula]:
    """Two augmented views of one formula.

    When both chains are label-preserving the views share the input's label.
    """
    return apply_chain(formula, chain1), apply_chain(formula, chain2)


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity ``a.b / (|a||b|)``; undefined (raises) on zero norm."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    return float(a @ b / (na * nb))


def nt_xent(
    batch: EmbeddingBatch | np.ndarray,
    config: ContrastiveConfig = DEFAULT_CONTRASTIVE,
) -> float:
    """Batch NT-Xent loss, averaged over all ordered positive pairs.

    Stabilized with max-subtraction inside each row's softmax.  With a
    single pair the denominator holds only the positive term and the loss
    is exactly 0.
    """
    if not isinstance(batch, EmbeddingBatch):
        batch = EmbeddingBatch(batch)
    x = batch.vectors
    norms = np.linalg.norm(x, axis=1)
    if (norms == 0.0).any():
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    unit = x / norms[:, None]
    logits = (unit @ unit.T) / config.temperature

    size = x.shape[0]
    rows = np.arange(size)
    others = logits[~np.eye(size, dtype=bool)].reshape(size, size - 1)
    peak = others.max(axis=1)
    log_denominator = peak + np.log(np.exp(others - peak[:, None]).sum(axis=1))
    losses = log_denominator - logits[rows, rows ^ 1]
    # summed left to right; sum() compensates its float additions from Python 3.12
    return float(reduce(add, losses.tolist(), 0.0) / size)
