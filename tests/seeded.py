"""Seeded sparse paving matroids shared by the tests.

The seeds are fixed; never change one to make a failure go away.
"""

import random
from itertools import combinations

from mixeuler import build_sparse_paving

SPARSE_PAVING_SEEDS = (11, 23, 37, 41, 59, 73)


def random_sparse_paving(seed):
    """Rank 3 or 4 on at most 8 elements, with 1 to 4 circuit-hyperplanes."""
    rng = random.Random(seed)
    rank = rng.choice((3, 4))
    m = rng.randint(rank + 2, 8)
    blocks = []
    for _ in range(rng.randint(1, 4)):
        cand = frozenset(rng.sample(range(m), rank))
        if all(len(cand & b) <= rank - 2 for b in blocks):
            blocks.append(cand)
    return build_sparse_paving(rank, m, [tuple(sorted(b)) for b in blocks])


def seeded_circuit_hyperplanes(m, rank, seed, limit=None):
    """Greedy circuit-hyperplanes from a seeded shuffle of the rank-subsets,
    the first `limit` of them when a limit is given."""
    rng = random.Random(seed)
    candidates = list(combinations(range(m), rank))
    rng.shuffle(candidates)
    chosen = []
    for c in candidates:
        if all(len(set(c) & set(h)) <= rank - 2 for h in chosen):
            chosen.append(c)
        if len(chosen) == limit:
            break
    return chosen


def seeded_sparse_paving(m, rank, seed, limit=None):
    return build_sparse_paving(rank, m, seeded_circuit_hyperplanes(m, rank, seed, limit))
