"""Reference formulas the tests check the engines against.

The engines compute every insertion weight through
`expansion.insertion_weight`; oi_weight and mult_weight are the weights as
the definitions state them, on sets and sizes. The engines count subsets
by corank and nullity on the lattice of flats; corank_nullity_counts
closes every subset of the ground set instead. Matroid.flats_strictly_between
reads an interval off per-element bitsets; flats_between_scan tests every
flat of the ranks strictly between. Localization tallies permutations by a
DP over prefix sets; perm_classes_walk visits all m! orderings on a prefix
tree. Tree enumeration skips flats of zero insertion weight;
trees_unpruned grows every tree and lets tree_weight drop the zero ones.
"""

from fractions import Fraction

from mixeuler.expansion import _find_gap
from mixeuler.trees import PostnikovTree, tree_weight


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


def perm_classes_walk(matroid) -> dict:
    """Map jump set -> {descent set: sum of (-1)^des over the matching w}.

    Jump sets are tuples of positions and descent sets frozensets. Walks the
    prefix tree of permutations, so each closure is computed once per node.
    """
    classes: dict = {}
    _walk_perms(matroid.closure, matroid.full_mask, classes, 0, 0, -1, 0, (), frozenset())
    return classes


def _walk_perms(closure, full, classes, used_mask, closure_mask, last_img, pos, k_set, des_set):
    if used_mask == full:
        by_des = classes.setdefault(k_set, {})
        by_des[des_set] = by_des.get(des_set, 0) + (-1 if len(des_set) & 1 else 1)
        return
    remaining = full & ~used_mask
    while remaining:
        bit = remaining & -remaining
        remaining &= remaining - 1
        img = bit.bit_length() - 1
        nxt = closure_mask if bit & closure_mask else closure(closure_mask | bit)
        _walk_perms(
            closure,
            full,
            classes,
            used_mask | bit,
            nxt,
            img,
            pos + 1,
            k_set + (pos,) if nxt != closure_mask else k_set,
            des_set | {pos - 1} if pos > 0 and last_img > img else des_set,
        )


def trees_unpruned(matroid, vs, convention: str = "oi") -> list:
    """Every (tree, weight) of trees.enumerate_trees, growing every flat of
    every gap and weighing only the finished trees."""
    out = []
    _grow_unpruned(matroid, tuple(vs), convention, out, (), (), (), ())
    return out


def _grow_unpruned(matroid, vs, convention, out, chain, order, parent, side):
    depth = len(order)
    if depth == len(vs):
        tree = PostnikovTree(order, chain, parent, side)
        w = tree_weight(matroid, tree, vs, convention)
        if w:
            out.append((tree, w))
        return
    idx = _find_gap(chain, vs[depth])
    if idx is None:
        return
    lo = chain[idx - 1] if idx else 0
    hi = chain[idx] if idx < len(chain) else matroid.full_mask
    left_lab = order[idx - 1] if idx else 0
    right_lab = order[idx] if idx < len(order) else 0
    if left_lab == 0 and right_lab == 0:
        p, s = 0, "root"
    elif left_lab > right_lab:
        p, s = left_lab, "right"
    else:
        p, s = right_lab, "left"
    for g in matroid.flats_strictly_between(lo, hi):
        _grow_unpruned(
            matroid,
            vs,
            convention,
            out,
            chain[:idx] + (g,) + chain[idx:],
            order[:idx] + (depth + 1,) + order[idx:],
            parent + (p,),
            side + (s,),
        )
