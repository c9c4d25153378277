"""Reference formulas the tests check the engines against.

The engines compute every insertion weight through
`expansion.insertion_weight`; oi_weight and mult_weight are the weights as
the definitions state them, on sets and sizes. The engines count subsets
by corank and nullity on the lattice of flats; corank_nullity_counts
closes every subset of the ground set instead. Matroid.flats_strictly_between
reads an interval off per-element bitsets; flats_between_scan tests every
flat of the ranks strictly between.
"""

from fractions import Fraction


def oi_weight(s_mask: int, t_mask: int, u_mask: int) -> int:
    """Over-intersection of S and T inside U, on bitmasks."""
    s = (s_mask & u_mask).bit_count()
    t = (t_mask & u_mask).bit_count()
    overlap = (s_mask & t_mask & u_mask).bit_count()
    return overlap - max(0, s + t - u_mask.bit_count())


def mult_weight(s_size: int, k: int, u_size: int) -> Fraction:
    """Weight of a flat of size s_size in gamma_k over a u_size universe."""
    return min(s_size, k) - Fraction(k * s_size, u_size)


def corank_nullity_counts(matroid) -> dict:
    """Subsets of the ground set by (corank, nullity), one subset at a time.

    Fills a table of the closure of every subset, each from the closure of
    the subset without its lowest element, so it needs m <= 20.
    """
    if matroid.m > 20:
        raise ValueError(f"a closure table of 2^{matroid.m} subsets is too large")
    top = matroid.rank_total
    closure = [0] * (1 << matroid.m)
    counts = {(top, 0): 1}
    for s in range(1, len(closure)):
        low = s & -s
        c = closure[s ^ low]
        closure[s] = c = c if c & low else matroid.closure(c | low)
        r = matroid.rank_of_flat(c)
        counts[top - r, s.bit_count() - r] = counts.get((top - r, s.bit_count() - r), 0) + 1
    return counts


def flats_between_scan(matroid, lo: int, hi: int) -> tuple:
    """The flats G with lo < G < hi in level order, scanning the rank window."""
    rank = matroid.rank_of_flat
    return tuple(
        g
        for k in range(rank(lo) + 1, rank(hi))
        for g in matroid.flats_by_rank[k]
        if g & lo == lo and g & hi == g
    )
