#!/usr/bin/env python3
"""Positive pairs and the NT-Xent loss, end to end without a neural net.

Builds two augmented views per instance, embeds each view with a fixed
random projection of simple structural features, and evaluates the
contrastive loss.  True pairs (two views of the same instance) score a
lower loss than deliberately mismatched pairs - the signal an encoder
would be trained on.
"""

import numpy as np

from cnfaug import (
    GenFamily,
    GenSpec,
    apply_chain,
    cosine_sim,
    gen_corpus,
    nt_xent,
    parse_chain,
)

rng = np.random.default_rng(2024)
corpus = gen_corpus(GenSpec(GenFamily.SR, 10), 8, seed=99)
instances = [inst.formula for inst in corpus]  # 16 formulas

chain_a = parse_chain("VE:0.1:7,SC")
chain_b = parse_chain("CR:0.3:11,SC")


def featurize(formula, dim=16, projection=rng.normal(size=(40, 16))):
    """Polarity counts per variable, randomly projected: a stand-in encoder."""
    raw = np.zeros(40)
    for clause in formula.clauses:
        for lit in clause:
            raw[2 * (abs(lit) - 1) % 38 + (lit < 0)] += 1.0
    raw[-1] = formula.num_clauses
    return raw @ projection


views = []
for formula in instances[:8]:
    v1, v2 = apply_chain(formula, chain_a), apply_chain(formula, chain_b)
    views.extend([featurize(v1), featurize(v2)])
batch = np.stack(views)

print(f"batch: {batch.shape[0]} embeddings ({batch.shape[0]//2} positive pairs)")
print(f"similarity of one true pair:     {cosine_sim(batch[0], batch[1]):+.3f}")
print(f"similarity of a cross pair:      {cosine_sim(batch[0], batch[5]):+.3f}")
print()

aligned = nt_xent(batch, temperature=0.5)

shuffled = batch.copy()
shuffled[1::2] = batch[np.roll(np.arange(1, batch.shape[0], 2), 1)]
mismatched = nt_xent(shuffled, temperature=0.5)

print(f"NT-Xent, true pairs:       {aligned:.4f}")
print(f"NT-Xent, mismatched pairs: {mismatched:.4f}")
print("lower is better; views of the same instance stay closer than strangers")
