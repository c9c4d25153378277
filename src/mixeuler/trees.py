"""Weighted binary-tree expansion of products of hypersimplex classes.

A product gamma_{v_1}...gamma_{v_k} expands over flat-filled increasing
binary trees: vertices carry distinct proper flats forming a chain along the
binary search order, the labeling records insertion time, and each vertex b
must fit its class index strictly between the sizes of its search-order
neighbors among earlier-inserted vertices (boundaries: empty set and ground
set). Each tree contributes the product of its per-vertex insertion weights,
in either the oi or mult convention, to the monomial of its image flag.

Enumeration grows the partial trees level by level, as the flag expansion
grows flags (expansion._expand), each one only its chain of flats and its
labels in search order: class v_i goes into the one gap of the chain its
size fits, and the insertion positions determine the tree uniquely (the new
vertex hangs off the more recently inserted of its two neighbors). Each
gap's flats come from the flag expansion's table (expansion._entering),
which drops two kinds of flat at once. One has insertion weight zero (oi
only): its gap neighbors are the ones the finished tree assigns that vertex,
so every tree grown from it would weigh zero. The other leaves a chain that
can no longer finish: its size is a class still to insert, or, on a product
of length r, the chain can no longer become maximal.

Weights are not carried along the growth: each finished tree's weight is
recomputed from its own labels and flats, as the product of insertion_weight
over every vertex with its insertion neighbors, so the aggregation tests
genuinely cross-check the expansion engine. A vertex's parent, side and
insertion neighbors depend on the label order alone (_insertion_neighbors
finds them in one pass over the labels), so a call works them out once per
distinct label order, at most k! of them (_shape); and it computes each
(lo, hi, flat, class) factor once, in a table that dies with the call.
tree_weight is the same product with nothing kept, the reference the tests
compare against.
"""

from __future__ import annotations

from bisect import bisect
from collections import namedtuple
from fractions import Fraction

from .errors import VOutOfRange
from .expansion import (
    _check_convention,
    _entering,
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
    """Product of per-vertex insertion weights, from the tree data alone.

    v must hold one class per vertex; VOutOfRange otherwise.
    """
    _check_convention(convention)
    vs = tuple(v)
    if len(vs) != tree.size:
        raise VOutOfRange(f"v has {len(vs)} classes but the tree has {tree.size} vertices")
    scale = weight_scale(matroid.m, convention)
    flats = tree.flats
    full = matroid.full_mask
    total = 1
    for t, (pos, left, right) in enumerate(_insertion_neighbors(tree.labels)):
        val = vs[t]
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


def _shape(labels, vs):
    """(parent, side, steps) of every tree with these labels in search order.

    The new vertex hangs off the more recently inserted of its insertion
    neighbors. steps holds (left, pos, right, class) for labels 1, 2, ...:
    the vertex and its insertion neighbors as indices into the chain padded
    with the empty set and the ground set, where the boundaries are 0 and
    len(labels) + 1.
    """
    parent, side, steps = [], [], []
    end = len(labels) + 1
    for val, (pos, left, right) in zip(vs, _insertion_neighbors(labels)):
        left_lab = 0 if left is None else labels[left]
        right_lab = 0 if right is None else labels[right]
        if left_lab == 0 and right_lab == 0:
            p, s = 0, "root"
        elif left_lab > right_lab:
            p, s = left_lab, "right"
        else:
            p, s = right_lab, "left"
        parent.append(p)
        side.append(s)
        left = 0 if left is None else left + 1
        right = end if right is None else right + 1
        steps.append((left, pos + 1, right, val))
    return tuple(parent), tuple(side), tuple(steps)


def enumerate_trees(matroid: Matroid, v, convention: str = "oi"):
    """All compatible flat-filled trees for v with their nonzero weights.

    Aggregating the result by image flag reproduces expand_gamma_product.
    """
    _check_convention(convention)
    vs = tuple(v)
    _validate_product(matroid, vs)
    scale = weight_scale(matroid.m, convention)
    full = matroid.full_mask
    table = {}
    # (chain padded with the empty set and the ground set, labels in search order)
    partial = [((0, full), ())]
    for i, val in enumerate(vs):
        grown = []
        label = (i + 1,)
        for chain, labels in partial:
            # no flat of the chain has size val (_entering drops such flats)
            idx = bisect(chain, val, key=int.bit_count)
            gap = _entering(matroid, table, chain[idx - 1], chain[idx], vs, i, convention, scale)
            if gap:
                before, after = chain[:idx], chain[idx:]
                labels_g = labels[: idx - 1] + label + labels[idx - 1 :]
                grown += [(before + (g,) + after, labels_g) for g, _ in gap]
        partial = grown
    shapes = {}  # labels -> _shape(labels, vs)
    factors = {}  # (lo, hi, flat, class) -> its insertion weight, 0 off the gap
    out = []
    for chain, labels in partial:
        shape = shapes.get(labels)
        if shape is None:
            shape = shapes[labels] = _shape(labels, vs)
        parent, side, steps = shape
        total = 1
        for left, pos, right, val in steps:
            key = (chain[left], chain[right], chain[pos], val)
            w = factors.get(key)
            if w is None:
                lo, hi, g, _ = key
                ok = lo.bit_count() < val < hi.bit_count()
                w = factors[key] = insertion_weight(lo, hi, g, val, convention, scale) if ok else 0
            total *= w
            if not total:
                break
        else:
            if convention == "mult":
                total = Fraction(total, scale ** len(vs))
            out.append((PostnikovTree(labels, chain[1:-1], parent, side), total))
    return out


def aggregate_by_flag(terms):
    """Sum tree weights by image flag, dropping zero totals."""
    agg = {}
    for tree, w in terms.items() if isinstance(terms, dict) else terms:
        prev = agg.get(tree.flats)
        agg[tree.flats] = w if prev is None else prev + w
    return {flag: w for flag, w in agg.items() if w}
