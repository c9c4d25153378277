"""Weighted binary-tree expansion of products of hypersimplex classes.

A product gamma_{v_1}...gamma_{v_k} expands over flat-filled increasing
binary trees: vertices carry distinct proper flats forming a chain along the
binary search order, the labeling records insertion time, and each vertex b
must fit its class index strictly between the sizes of its search-order
neighbors among earlier-inserted vertices (boundaries: empty set and ground
set). Each tree contributes the product of its per-vertex insertion weights,
in either the oi or mult convention, to the monomial of its image flag.

Enumeration runs the flag expansion itself while recording where each flat
lands in the chain; the insertion positions determine the tree uniquely
(new vertex hangs off the more recently inserted of its two neighbors).
Each gap's flats come from the flag expansion's table (expansion._entering),
which drops two kinds of flat at once. One has insertion weight zero (oi
only): its gap neighbors are the ones the finished tree assigns that vertex,
so every tree grown from it would weigh zero. The other leaves a chain that
can no longer finish: its size is a class still to insert, or, on a product
of length r, the chain can no longer become maximal. Weights are still
recomputed from each finished tree, not carried along, so the aggregation
tests genuinely cross-check the expansion engine. tree_weight finds every
vertex's insertion neighbors in one pass over the labels, keeping the
search positions inserted so far sorted (_insertion_neighbors).
"""

from __future__ import annotations

from bisect import bisect
from collections import namedtuple
from fractions import Fraction

from .expansion import (
    _check_convention,
    _entering,
    _find_gap,
    _validate_product,
    insertion_weight,
    weight_scale,
)
from .matroid import Matroid

__all__ = ["PostnikovTree", "tree_weight", "enumerate_trees", "aggregate_by_flag"]


class PostnikovTree(namedtuple("PostnikovTree", "labels flats parent side")):
    """An increasing binary tree whose vertices carry a chain of flats.

    Vertices are identified by search position 0..k-1 (leftmost first).
    labels[i] is the insertion time (1-based) of the vertex at position i;
    flats[i] its flat, so flats is the image flag in chain order. parent[t-1]
    is the label of the parent of the vertex labeled t (0 for the root) and
    side[t-1] is "left" or "right" ("root" for the root).
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.labels)

    def position_of_label(self, t: int) -> int:
        return self.labels.index(t)

    def neighbors_at_insertion(self, t: int):
        """Search positions of the chain neighbors of label t when it arrived.

        Returns (left, right) as final search positions, None at a boundary.
        """
        pos = self.position_of_label(t)
        left = right = None
        for i in range(pos - 1, -1, -1):
            if self.labels[i] < t:
                left = i
                break
        for i in range(pos + 1, self.size):
            if self.labels[i] < t:
                right = i
                break
        return left, right

    def is_increasing(self) -> bool:
        for t in range(2, self.size + 1):
            if not 1 <= self.parent[t - 1] < t:
                return False
        return self.size == 0 or self.parent[0] == 0

    def is_compatible(self, matroid: Matroid, v) -> bool:
        """Check the gap condition at every vertex against v."""
        if len(v) != self.size:
            return False
        for pos in range(self.size):
            t = self.labels[pos]
            left, right = self.neighbors_at_insertion(t)
            lo = 0 if left is None else self.flats[left].bit_count()
            hi = matroid.m if right is None else self.flats[right].bit_count()
            if not lo < v[t - 1] < hi:
                return False
        return True


def tree_weight(matroid: Matroid, tree: PostnikovTree, v, convention: str = "oi"):
    """Product of per-vertex insertion weights, from the tree data alone."""
    _check_convention(convention)
    return _tree_weight(matroid, tree, v, convention, weight_scale(matroid.m, convention))


def _tree_weight(matroid, tree, v, convention, scale):
    """tree_weight, with the convention checked and its scale given."""
    flats = tree.flats
    full = matroid.full_mask
    total = 1
    for t, (pos, left, right) in enumerate(_insertion_neighbors(tree.labels)):
        val = v[t]
        lo = 0 if left is None else flats[left]
        hi = full if right is None else flats[right]
        if not lo.bit_count() < val < hi.bit_count():
            return 0
        total *= insertion_weight(lo, hi, flats[pos], val, convention, scale)
        if not total:
            break
    return Fraction(total, scale**tree.size) if convention == "mult" else total


def _insertion_neighbors(labels):
    """(position, left, right) for labels 1, 2, ... in turn: the search
    position of the label and those of its chain neighbors when it arrived,
    None at a boundary, as PostnikovTree.neighbors_at_insertion gives them.

    One pass: the positions inserted so far stay sorted, and the neighbors
    of a new one are its two sides there.
    """
    position = [0] * len(labels)
    for pos, t in enumerate(labels):
        position[t - 1] = pos
    placed = []
    for pos in position:
        j = bisect(placed, pos)
        yield pos, placed[j - 1] if j else None, placed[j] if j < len(placed) else None
        placed.insert(j, pos)


def enumerate_trees(matroid: Matroid, v, convention: str = "oi"):
    """All compatible flat-filled trees for v with their nonzero weights.

    Aggregating the result by image flag reproduces expand_gamma_product.
    """
    _check_convention(convention)
    vs = tuple(v)
    _validate_product(matroid, vs)
    out = []
    scale = weight_scale(matroid.m, convention)
    _grow_trees(matroid, vs, convention, scale, {}, out, (), (), (), ())
    return out


def _grow_trees(matroid, vs, convention, scale, table, out, chain, order, parent, side):
    """Append to out every tree for vs that grows from a partial one.

    The partial tree is its chain of flats, its labels in search order and
    the parent and side of each label; table is the call's gap table for
    expansion._entering. Module-level, as is _deg in expansion, so that no
    call leaves a cycle.
    """
    depth = len(order)
    if depth == len(vs):
        tree = PostnikovTree(order, chain, parent, side)
        w = _tree_weight(matroid, tree, vs, convention, scale)
        if w:
            out.append((tree, w))
        return
    idx = _find_gap(chain, vs[depth])
    lo = chain[idx - 1] if idx else 0
    hi = chain[idx] if idx < len(chain) else matroid.full_mask
    label = depth + 1
    # the new vertex hangs off the more recently inserted neighbor
    left_lab = order[idx - 1] if idx else 0
    right_lab = order[idx] if idx < len(order) else 0
    if left_lab == 0 and right_lab == 0:
        p, s = 0, "root"
    elif left_lab > right_lab:
        p, s = left_lab, "right"
    else:
        p, s = right_lab, "left"
    for g, _ in _entering(matroid, table, lo, hi, vs, depth, convention, scale):
        chain_g = chain[:idx] + (g,) + chain[idx:]
        order_g = order[:idx] + (label,) + order[idx:]
        _grow_trees(
            matroid, vs, convention, scale, table, out, chain_g, order_g, parent + (p,), side + (s,)
        )


def aggregate_by_flag(terms):
    """Sum tree weights by image flag, dropping zero totals."""
    agg = {}
    for tree, w in terms.items() if isinstance(terms, dict) else terms:
        prev = agg.get(tree.flats)
        agg[tree.flats] = w if prev is None else prev + w
    return {flag: w for flag, w in agg.items() if w}
