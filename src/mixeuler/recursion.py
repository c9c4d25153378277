"""Relation-based evaluators for mixed Eulerian degrees.

The expansion engines compute degrees directly; everything here recomputes
them through structural relations so the two can be played against each
other:

* an Eulerian-type one-step relation for sorted flatly contiguous index
  vectors with a repeated entry, summing over rank-1 and corank-1 flats;
* deletion/contraction for contiguous sorted vectors, recursing through
  minors and falling back to the interval DP (gamma_product_degree)
  whenever a child leaves the relation's domain;
* the generating polynomial whose y^k coefficient shifts every index up by
  k, together with its Tutte convolution and factorization identities.

Minors come from the parent's memo (Matroid.minor_interval, delete_element):
a repeated call, or a sibling minor with the same lattice, reuses a child
whose degree memo is already warm. Each relation keeps what it learns in
a store of the matroid (_eulerian, _pivots, _delcon and _convolution in the
table on Matroid), so a call only sums weights and asks degrees. The
Eulerian relation groups its flats by child and index shift once and sums
each group's weights once per class index. Deletion/contraction keeps each
pivot's closure size, contraction and coloop flag, and C(v, s) of every
minor it reached, so the next call recurses only into what none reached.

Throughout, C(v, s) means the degree of the product of gamma_{v_i} times
gamma_n^s, with value 0 whenever a component leaves 1..n or the length is
wrong; recursions push vectors out of range freely and rely on that.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PreconditionViolation, RankTooSmall, VOutOfRange
from .expansion import (
    _check_convention,
    _unscale,
    gamma_product_degree,
    insertion_weight,
    weight_scale,
)
from .matroid import Matroid
from .polynomials import UniPoly
from .tutte import tutte_polynomial

__all__ = [
    "SupportClass",
    "classify_support",
    "c_degree",
    "eulerian_recursion_degree",
    "deletion_contraction_degree",
    "cv_polynomial",
    "cv_via_tutte_convolution",
]


class SupportClass(namedtuple("SupportClass", "contiguous flatly_contiguous interval")):
    """Support shape of an index vector; interval is the witness [a, b]
    when flatly contiguous, else None."""

    __slots__ = ()


def classify_support(matroid: Matroid, v) -> SupportClass:
    """Support shape of an index vector relative to the matroid's flat sizes.

    Contiguous: the support is an integer interval. Flatly contiguous: every
    proper-flat size within [min(support), max(support)] belongs to the
    support, which is the only candidate witness interval.
    """
    vs = tuple(v)
    if not vs:
        raise PreconditionViolation("empty index vector has no support")
    support = set(vs)
    a, b = min(support), max(support)
    contiguous = support == set(range(a, b + 1))
    flatly = all(
        s in support for s in matroid.proper_flat_sizes() if a <= s <= b
    )
    return SupportClass(contiguous, flatly, (a, b) if flatly else None)


def c_degree(matroid: Matroid, v, s: int = 0, convention: str = "oi") -> int:
    """C(v, s): degree of the gamma product of v padded with s top classes.

    Liberal like gamma_product_degree: wrong length or out-of-range entries
    give 0, which the recursions depend on.
    """
    if s < 0:
        return 0
    full = tuple(v) + (matroid.n,) * s
    return gamma_product_degree(matroid, full, convention)


def eulerian_recursion_degree(
    matroid: Matroid, v, j: int, convention: str = "oi"
) -> int:
    """One step of the repeat-entry relation, children by the interval DP.

    v must be sorted, flatly contiguous, of full length r, with the entry at
    1-based position j occurring at least twice. The value of gamma_{v_j} is
    written out over flats; only rank-1 flats (entering the contraction,
    indices shifted down by the flat size) and corank-1 flats (entering the
    restriction) survive.
    """
    _check_convention(convention)
    vs = tuple(v)
    r = matroid.r
    if len(vs) != r:
        raise PreconditionViolation(f"need a full-length vector of {r} entries")
    if not 1 <= j <= r:
        raise VOutOfRange(f"repeat position {j} outside 1..{r}")
    if list(vs) != sorted(vs):
        raise PreconditionViolation("index vector must be sorted ascending")
    if any(x < 1 or x > matroid.n for x in vs):
        return 0
    if vs.count(vs[j - 1]) < 2:
        raise PreconditionViolation(f"entry {vs[j - 1]} does not repeat")
    if not classify_support(matroid, vs).flatly_contiguous:
        raise PreconditionViolation("index vector is not flatly contiguous")
    val = vs[j - 1]
    rest = vs[: j - 1] + vs[j:]
    total = 0
    for child, shift, wt in _eulerian_terms(matroid, val, convention):
        total += wt * c_degree(child, tuple(x - shift for x in rest), 0, convention)
    return _unscale(total, weight_scale(matroid.m, convention), "relation sum")


def _eulerian_terms(matroid: Matroid, val: int, convention: str):
    """(child, shift, summed weight) of each group of the relation's flats
    whose weights in gamma_val do not cancel.

    A rank-1 flat F enters the contraction with every index shifted down by
    |F|, a corank-1 flat the restriction with no shift; flats with the same
    child and shift share one degree, so they are grouped once per matroid,
    and each group's weights are summed once per convention and val.
    """
    groups, sums = matroid._eulerian
    got = sums.get((convention, val))
    if got is None:
        full = matroid.full_mask
        scale = weight_scale(matroid.m, convention)
        got = sums[convention, val] = tuple(
            (child, shift, wt)
            for (child, shift), flats in groups.items()
            if (wt := sum(insertion_weight(0, full, f, val, convention, scale) for f in flats))
        )
    return got


def _eulerian_groups(matroid: Matroid) -> tuple:
    """Matroid._eulerian at first: the flats grouped by (child, shift), no sums."""
    groups = {}
    for flat in matroid.flats_by_rank[1]:
        groups.setdefault((matroid.contraction(flat)[0], flat.bit_count()), []).append(flat)
    for flat in matroid.flats_by_rank[matroid.r]:
        groups.setdefault((matroid.restriction(flat)[0], 0), []).append(flat)
    return groups, {}


def _dc_applicable(matroid: Matroid, vs, s: int) -> bool:
    if matroid.rank_total < 3 or s < 0 or s > matroid.r:
        return False
    if len(vs) != matroid.r - s:
        return False
    if vs and (any(x < 1 or x > matroid.n for x in vs)):
        return False
    if s != 0 and (not vs or vs[0] != 1):
        return False
    if vs and not classify_support(matroid, vs).contiguous:
        return False
    return True


def _dc_eval(matroid: Matroid, vs, s: int, convention: str, memo: dict) -> int:
    vs = tuple(sorted(vs))
    if len(vs) != matroid.r - s or vs and (vs[0] < 1 or vs[-1] > matroid.n):
        return 0
    key = (matroid.canonical_key(), vs, s)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if _dc_applicable(matroid, vs, s):
        out = _dc_step(matroid, vs, s, 0, convention, memo)
    else:
        out = c_degree(matroid, vs, s, convention)
    memo[key] = out
    return out


def _dc_step(
    matroid: Matroid, vs, s: int, i: int, convention: str, memo: dict
) -> int:
    pivot = matroid._pivots.get(i)
    if pivot is None:
        flat = matroid.closure(1 << i)
        pivot = matroid._pivots[i] = (
            flat.bit_count(), matroid.contraction(flat)[0], matroid.is_coloop(i)
        )
    p, contracted, coloop = pivot
    total = 0
    if coloop:
        if s > 0:
            deleted, _ = matroid.delete_element(i)
            total += _dc_eval(deleted, vs, s - 1, convention, memo)
        shift = 1
    else:
        deleted, _ = matroid.delete_element(i)
        total += _dc_eval(deleted, vs, s, convention, memo)
        shift = p
    # every contraction term carries the closure flat past gamma_{v_1} and
    # dies unless the flat fits under it; the length-one case has an empty
    # child vector that the out-of-range convention cannot kill, so guard
    # explicitly
    if vs and vs[0] < shift:
        return total
    k_range = len(vs)
    for k in range(1, k_range + 1):
        child_v = tuple(x + 1 for x in vs[: k - 1]) + vs[k:]
        child_v = tuple(x - shift for x in child_v)
        total += _dc_eval(contracted, child_v, s, convention, memo)
    return total


def deletion_contraction_degree(
    matroid: Matroid, v, s: int, i: int, convention: str = "oi"
) -> int:
    """C(v, s) through deletion and contraction at element i.

    Requires rank at least 3, v contiguous sorted with positive entries,
    0 <= s <= r, length r - s, and either s = 0 or v starting at 1. The
    non-coloop step deletes i and contracts its closure flat (size p),
    bumping the first k-1 surviving indices and shifting everything down by
    p; a coloop contributes the deletion at s - 1 instead (dropped when
    s = 0) with shift 1. Children recurse while they satisfy the same
    conditions and otherwise fall back to the interval DP. Their values are
    kept on the matroid, one memo per convention keyed by the child's lattice,
    so later calls reuse every minor an earlier one reached.
    """
    _check_convention(convention)
    vs = tuple(v)
    if matroid.rank_total < 3:
        raise RankTooSmall("relation needs rank at least 3")
    if not 0 <= s <= matroid.r:
        raise PreconditionViolation(f"s = {s} outside 0..{matroid.r}")
    if len(vs) != matroid.r - s:
        raise PreconditionViolation(
            f"vector length {len(vs)} plus s = {s} must reach {matroid.r}"
        )
    if not 0 <= i < matroid.m:
        raise VOutOfRange(f"element {i} out of range")
    if vs:
        if list(vs) != sorted(vs):
            raise PreconditionViolation("index vector must be sorted ascending")
        if any(x < 1 for x in vs):
            raise PreconditionViolation("index entries must be positive")
        if any(x > matroid.n for x in vs):
            return 0
        if not classify_support(matroid, vs).contiguous:
            raise PreconditionViolation("support must be an integer interval")
    if s != 0 and (not vs or vs[0] != 1):
        raise PreconditionViolation("s > 0 needs the vector to start at 1")
    memo = matroid._delcon.setdefault(convention, {})
    return _dc_step(matroid, vs, s, i, convention, memo)


def cv_polynomial(matroid: Matroid, v, convention: str = "oi") -> UniPoly:
    """Generating polynomial whose y^k coefficient is C(v + k*1, 0).

    Finite because entries above n kill the degree. A rank-1 matroid (empty
    v) gives the constant 1.
    """
    vs = tuple(v)
    if len(vs) != matroid.r:
        raise PreconditionViolation(f"need a full-length vector of {matroid.r} entries")
    if any(x < 1 for x in vs):
        raise PreconditionViolation("index entries must be positive")
    if not vs:
        return UniPoly((1,))
    top = max(vs)
    coeffs = []
    for k in range(0, matroid.n - top + 1):
        coeffs.append(c_degree(matroid, tuple(x + k for x in vs), 0, convention))
    return UniPoly(coeffs)


def cv_via_tutte_convolution(matroid: Matroid, v, convention: str = "oi") -> int:
    """C(v, 0) by convolving T_M(1, y) with Boolean degrees.

    For contiguous sorted v: sum over j < v_1 of the y^j coefficient of
    T_M(1, y) times C(v - j*1, 0) of the Boolean matroid of the same rank.
    Both are kept on the matroid and die with it.
    """
    _check_convention(convention)
    vs = tuple(v)
    if len(vs) != matroid.r:
        raise PreconditionViolation(f"need a full-length vector of {matroid.r} entries")
    if not vs:
        return 1
    if list(vs) != sorted(vs):
        raise PreconditionViolation("index vector must be sorted ascending")
    if any(x < 1 for x in vs):
        raise PreconditionViolation("index entries must be positive")
    if not classify_support(matroid, vs).contiguous:
        raise PreconditionViolation("support must be an integer interval")
    t1y, boolean = matroid._convolution
    total = 0
    for j in range(vs[0]):
        coef = t1y[j]
        if coef:
            total += coef * c_degree(
                boolean, tuple(x - j for x in vs), 0, convention
            )
    return total


def _convolution_pair(matroid: Matroid) -> tuple:
    """Matroid._convolution: T_M(1, y) and the Boolean matroid of the same rank."""
    from .matroid import build_boolean

    return tutte_polynomial(matroid).specialize_y(1), build_boolean(matroid.rank_total)
