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
The flag expansion of a full-length product drops partial flags that
cannot become maximal; expand_unpruned grows every one of them. It keeps
the flats of each rank's size window, bisected out of the rank as the
degree DP does; viable counts the classes left on each side of one flat.
The remixed Eulerian numbers come from the degree DP's rank view;
remixed_by_exchange solves their defining linear system instead.
Localization reaches a gamma product's lambda monomials by changing basis
one index at a time; localization_walk visits every lambda-exponent vector
the composition allows and weighs it by binomials. The repeat-entry
relation asks one degree per group of flats with the same child;
eulerian_per_flat asks one for every flat of nonzero weight.
"""

from fractions import Fraction
from itertools import accumulate
from math import comb

from mixeuler.expansion import (
    _find_gap,
    compositions,
    gamma_product_degree,
    insertion_weight,
    weight_scale,
)
from mixeuler.localization import lambda_monomial_degree
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


def viable(rank, lo, g, hi, rest) -> bool:
    """Whether a maximal flag can still grow once flat g enters the gap (lo, hi).

    rest holds the classes still to insert and rank maps a flat to its rank.
    Each of them lands in the one gap whose sizes straddle it, so (lo, g)
    must receive exactly rank(g) - rank(lo) - 1 of them, (g, hi) exactly
    rank(hi) - rank(g) - 1, and none may equal |g| (a hit, which kills the
    term). The other gaps of the flag are as they were when they were made.
    """
    lo_size, g_size, hi_size = lo.bit_count(), g.bit_count(), hi.bit_count()
    below = above = 0
    for val in rest:
        if lo_size < val < hi_size:
            if val < g_size:
                below += 1
            elif val > g_size:
                above += 1
            else:
                return False
    return below == rank[g] - rank[lo] - 1 and above == rank[hi] - rank[g] - 1


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


def localization_walk(matroid, c) -> int:
    """Degree of gamma_1^c_1 ... gamma_n^c_n as a sum of lambda monomials.

    Each gamma_k splits as lambda_k + ... + lambda_n. A lambda-exponent
    vector d takes its weight from the c_1 + ... + c_j factors that may
    land on lambda_j, less the d_0 + ... + d_{j-1} already placed: the
    product of C(c_1 + ... + c_j - d_0 - ... - d_{j-1}, d_j). The walk runs
    over d_0 .. d_{n-1}; d_n takes what is left, in one way.
    """
    walks = [((), 0, 1)]  # exponents so far, their sum, weight
    for avail in tuple(accumulate((0,) + tuple(c)))[: matroid.n]:
        nxt = []
        for d, placed, w in walks:
            free = avail - placed
            for dj in range(free + 1):
                nxt.append((d + (dj,), placed + dj, w * comb(free, dj)))
        walks = nxt
    return sum(
        w * lambda_monomial_degree(matroid, d + (matroid.r - placed,))
        for d, placed, w in walks
    )


def eulerian_per_flat(matroid, vs, j, convention) -> int:
    """recursion.eulerian_recursion_degree(matroid, vs, j, convention) for vs
    in its domain, summed flat by flat: the weight of each rank-1 flat F in
    gamma_{vs_j} times the degree of its contraction at the other entries
    shifted down by |F|, plus the weight of each corank-1 flat times the
    degree of its restriction at the other entries."""
    val, rest = vs[j - 1], vs[: j - 1] + vs[j:]
    full = matroid.full_mask
    scale = weight_scale(matroid.m, convention)
    total = 0
    for flat in matroid.flats_by_rank[1]:
        wt = insertion_weight(0, full, flat, val, convention, scale)
        if wt:
            child, _ = matroid.contraction(flat)
            shifted = tuple(x - flat.bit_count() for x in rest)
            total += wt * gamma_product_degree(child, shifted, convention)
    for flat in matroid.flats_by_rank[matroid.r]:
        wt = insertion_weight(0, full, flat, val, convention, scale)
        if wt:
            child, _ = matroid.restriction(flat)
            total += wt * gamma_product_degree(child, rest, convention)
    quotient, remainder = divmod(total, scale)
    assert not remainder, (vs, j, convention)
    return quotient


def expand_unpruned(matroid, vs, convention, scale) -> dict:
    """Flag -> weight times scale^len(vs), as expansion._expand, growing
    every flat of nonzero weight in every gap at every step."""
    full = matroid.full_mask
    terms = {(): 1}
    for val in vs:
        new = {}
        entering = {}  # gap -> its flats with nonzero weight for this val
        for flag, w in terms.items():
            idx = _find_gap(flag, val)
            if idx is None:
                continue
            lo = flag[idx - 1] if idx else 0
            hi = flag[idx] if idx < len(flag) else full
            gap = entering.get((lo, hi))
            if gap is None:
                gap = entering[lo, hi] = [
                    (g, wt)
                    for g in matroid.flats_strictly_between(lo, hi)
                    if (wt := insertion_weight(lo, hi, g, val, convention, scale))
                ]
            for g, wt in gap:
                nf = flag[:idx] + (g,) + flag[idx:]
                new[nf] = new.get(nf, 0) + w * wt
        terms = new
    return terms


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


def remixed_by_exchange(r: int, q) -> dict:
    """Every remixed Eulerian number A_c(q) with c of length r, by composition.

    Solves the defining linear system exactly: A at the all-ones vector is
    the q-factorial [r]_q!, and each entry c_i >= 2 gives the exchange
    (q + 1) A_c = q A_(one unit moved left) + A_(one unit moved right), a
    move off either end contributing nothing.
    """
    q = Fraction(q)
    members = list(compositions(r, r))
    index = {c: i for i, c in enumerate(members)}
    factorial = Fraction(1)
    for i in range(1, r + 1):
        factorial *= sum((q**j for j in range(i)), Fraction(0))
    rows = [({index[(1,) * r]: Fraction(1)}, factorial)]
    for c, col in index.items():
        for pos in range(r):
            if c[pos] < 2:
                continue
            row = {col: q + 1}
            for to, coeff in ((pos - 1, q), (pos + 1, Fraction(1))):
                if 0 <= to < r:
                    moved = list(c)
                    moved[pos] -= 1
                    moved[to] += 1
                    key = index[tuple(moved)]
                    row[key] = row.get(key, Fraction(0)) - coeff
            rows.append((row, Fraction(0)))
    values = _solve_sparse(rows, len(members))
    return {c: values[i] for c, i in index.items()}


def _solve_sparse(rows, ncols: int) -> dict:
    """Exact Gaussian elimination on sparse rows (dict col -> coeff, rhs).

    Returns the unique solution column -> value; raises ValueError when the
    rows are rank-deficient or inconsistent.
    """
    pivots = {}
    order = []
    for row, rhs in rows:
        row = dict(row)
        while True:
            hit = next((col for col in sorted(row) if col in pivots), None)
            if hit is None:
                break
            prow, prhs = pivots[hit]
            factor = row[hit]
            for pcol, pval in prow.items():
                cur = row.get(pcol, Fraction(0)) - factor * pval
                if cur:
                    row[pcol] = cur
                else:
                    row.pop(pcol, None)
            rhs -= factor * prhs
        if not row:
            if rhs:
                raise ValueError("equations are inconsistent")
            continue
        lead = min(row)
        inv = Fraction(1) / row[lead]
        pivots[lead] = ({c: v * inv for c, v in row.items()}, rhs * inv)
        order.append(lead)
    if len(pivots) < ncols:
        raise ValueError(f"rank {len(pivots)} of {ncols} unknowns")
    values = {}
    for col in reversed(order):
        prow, prhs = pivots[col]
        acc = prhs
        for c2, v2 in prow.items():
            if c2 != col:
                acc -= v2 * values[c2]
        values[col] = acc
    return values
