"""Contrastive-learning numerics: cosine similarity and the NT-Xent loss.

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

from functools import reduce
from operator import add

import numpy as np

# norms in this range are used as computed: neither their squares' sum nor a
# product of two of them leaves the normal doubles
_NORM_LO, _NORM_HI = 2.0**-500, 2.0**500


def _in_range(rows: np.ndarray | list[np.ndarray], norms: np.ndarray) -> tuple:
    """``rows`` and ``norms``, a row whose norm lies outside [_NORM_LO, _NORM_HI]
    divided by its largest magnitude on a copy; then refuses a zero row and a
    row with a non-finite entry, as every norm must be positive and finite."""
    outside = np.flatnonzero((norms < _NORM_LO) | (norms > _NORM_HI))
    if outside.size:
        rows, norms = rows.copy(), norms.copy()
        for i in outside:
            peak = np.abs(rows[i]).max(initial=0.0)
            if 0.0 < peak < np.inf:
                rows[i] = rows[i] / peak
                norms[i] = np.linalg.norm(rows[i])
    if (norms == 0.0).any():
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    if not np.isfinite(norms).all():
        raise ValueError("cosine similarity is undefined for vectors of non-finite norm")
    return rows, norms


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity ``a.b / (|a||b|)``; raises on vectors of two
    lengths, a zero vector or a non-finite entry.  A vector whose norm lies
    outside [2**-500, 2**500] is divided by its largest magnitude first."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError(
            f"cosine similarity needs vectors of one length, got {a.size} and {b.size}"
        )
    with np.errstate(over="ignore"):
        norms = np.array([np.linalg.norm(a), np.linalg.norm(b)])
    (a, b), (na, nb) = _in_range([a, b], norms)
    return float(a @ b / (na * nb))


def nt_xent(vectors: np.ndarray, temperature: float = 0.5) -> float:
    """Batch NT-Xent loss of ``2n`` row vectors, averaged over all ordered
    positive pairs; rows ``2k`` and ``2k+1`` are positives of each other.

    Stabilized with max-subtraction inside each row's softmax.  A row
    whose norm lies outside [2**-500, 2**500] is divided by its largest
    magnitude first; other rows are used as given.  With a single pair the
    denominator holds only the positive term and the loss is exactly 0.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    if x.shape[0] < 2 or x.shape[0] % 2:
        raise ValueError("batch size must be even and at least 2")
    if x.shape[1] < 1:
        raise ValueError("embedding dimension must be at least 1")
    if not np.isfinite(x).all():
        raise ValueError("embeddings must be finite")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    x, norms = _in_range(x, norms)
    unit = x / norms[:, None]
    logits = (unit @ unit.T) / temperature

    size = x.shape[0]
    rows = np.arange(size)
    others = logits[~np.eye(size, dtype=bool)].reshape(size, size - 1)
    peak = others.max(axis=1)
    log_denominator = peak + np.log(np.exp(others - peak[:, None]).sum(axis=1))
    losses = log_denominator - logits[rows, rows ^ 1]
    # summed left to right; sum() compensates its float additions from Python 3.12
    return float(reduce(add, losses.tolist(), 0.0) / size)
