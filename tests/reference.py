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
The degrees come from the interval DP; flag_degree reads them off the flag
expansion behind expand_gamma_product, the oracle the DP is checked
against, summing its integer weights as the DP does rather than the
Fractions expand_gamma_product returns under mult.
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

The rest are references no pipeline calls. perm_flag_and_basis closes the
prefixes of one permutation, giving its flag, jump positions and descents
(a PermutationEval). descent_target is the descent set, as a DescentTarget,
that a jump set and exponents ask of a permutation; localization's
_target_mask is its bitmask. lambda_restriction_vector gives the
coefficients of lambda_k on the proper flats. series_constant_term expands
one permutation's fixed-point term as a Laurent series and reads its
constant term. descent_rule_value is the bare descent rule that constant
term obeys. two_block_degree evaluates a product through the flats that
separate a low block of indices from a high one. pg_identity_check compares
a degree on a built projective geometry with q^(r(r+1)/2) A_c(q).
"""

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb

from mixeuler.errors import ExponentMismatch, PreconditionViolation
from mixeuler.expansion import (
    _expand,
    _unscale,
    check_composition,
    composition_to_indices,
    compositions,
    gamma_product_degree,
    insertion_weight,
    weight_scale,
)
from mixeuler.localization import lambda_monomial_degree
from mixeuler.matroid import Matroid
from mixeuler.pmd import remixed_polynomial
from mixeuler.recursion import c_degree, classify_support
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


def flag_degree(matroid, v, convention: str = "oi") -> int:
    """gamma_product_degree(matroid, v, convention) by the flag expansion
    behind expand_gamma_product: the scaled weights of the sorted product's
    flags, summed as integers and divided by L^r once. Liberal on input as
    the degree is: 0 for a product length other than r or an index outside
    1..n. A sum that L^r does not divide raises InternalError."""
    vs = tuple(sorted(v))
    if len(vs) != matroid.r or vs and (vs[0] < 1 or vs[-1] > matroid.n):
        return 0
    scale = weight_scale(matroid.m, convention)
    return _unscale(sum(_expand(matroid, vs, convention, scale).values()), scale ** len(vs))


def _find_gap(flag, val):
    """Gap index for inserting a flat of target size val into a chain sorted
    by size, or None on a hit: a flat of the chain has size val."""
    idx = 0
    for i, f in enumerate(flag):
        fs = f.bit_count()
        if fs == val:
            return None
        if fs < val:
            idx = i + 1
        else:
            break
    return idx


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


class PermutationEval(namedtuple("PermutationEval", "w flag k_set descents")):
    """Flag data of one permutation: images, prefix-closure flag, jump set.

    w holds the images; flag the closures, empty set through the full ground
    set; k_set the positions where the prefix closure grows (k_set[0] == 0);
    descents the frozenset of positions i with w(i) > w(i+1).
    """

    __slots__ = ()

    @property
    def basis_mask(self) -> int:
        out = 0
        for pos in self.k_set:
            out |= 1 << self.w[pos]
        return out


class DescentTarget(namedtuple("DescentTarget", "indices")):
    """The descent set, as a frozenset of positions, a permutation must have."""

    __slots__ = ()


def perm_flag_and_basis(matroid: Matroid, w) -> PermutationEval:
    """Prefix-closure flag, jump positions, and descents of one permutation."""
    ws = tuple(w)
    if sorted(ws) != list(range(matroid.m)):
        raise PreconditionViolation(
            f"need a permutation of 0..{matroid.m - 1}, got {ws}"
        )
    flag = [0]
    k_set = []
    mask = 0
    current = 0
    for pos, img in enumerate(ws):
        mask |= 1 << img
        nxt = matroid.closure(mask)
        if nxt != current:
            k_set.append(pos)
            flag.append(nxt)
            current = nxt
    descents = frozenset(
        i for i in range(matroid.n) if ws[i] > ws[i + 1]
    )
    return PermutationEval(ws, tuple(flag), tuple(k_set), descents)


def descent_target(d, k_set) -> DescentTarget:
    """Descent set a permutation with jump set k_set must have for exponents d.

    The exponent vector gains 1 at every position outside k_set; the target
    collects the positions (strictly below the last) where the running sum
    stays under the count of terms so far.
    """
    ds = tuple(d)
    n = len(ds) - 1
    kset = frozenset(k_set)
    prefix = 0
    out = []
    for i in range(n):
        prefix += ds[i] + (0 if i in kset else 1)
        if prefix < i + 1:
            out.append(i)
    return DescentTarget(frozenset(out))


def lambda_restriction_vector(matroid: Matroid, k: int) -> dict:
    """Coefficients of lambda_k on the proper nonempty flats.

    The piecewise-linear representative sends the indicator vector of F to
    [|F| >= k+1] - [n in F], and a linear functional phi maps to
    -sum phi(e_F) x_F.
    """
    if not 0 <= k <= matroid.n:
        raise ExponentMismatch(f"class index {k} outside 0..{matroid.n}")
    top = 1 << matroid.n
    out = {}
    for f in matroid.proper_flats():
        val = (1 if f & top else 0) - (1 if f.bit_count() >= k + 1 else 0)
        if val:
            out[f] = val
    return out


def series_constant_term(w, c) -> int:
    """Constant term of xi_w0^c_0 ... xi_wn^c_n / prod (xi_wi - xi_wi+1).

    Expanded in the ring that admits xi_a^-1 xi_b for a < b: each factor
    1/(xi_a - xi_b) becomes a geometric series in the variable with the
    larger index, and variables are eliminated in the order xi_{w(0)},
    xi_{w(1)}, ...; once a variable is retired only its exponent-zero slice
    can reach the constant term.
    """
    ws = tuple(w)
    cs = tuple(c)
    n = len(ws) - 1
    if len(cs) != n + 1:
        raise ExponentMismatch(f"need {n + 1} exponents, got {len(cs)}")
    if sum(cs) != n:
        raise ExponentMismatch("exponents must sum to the number of steps")
    # state: Laurent polynomial in the current variable, as exponent -> coeff
    state = {cs[0]: 1}
    for i in range(n):
        ascent = ws[i] < ws[i + 1]
        nxt: dict = {}
        for e, coef in state.items():
            if ascent:
                # 1/(xi_cur - xi_next) = sum_k xi_cur^(-k-1) xi_next^k
                # constant slice in xi_cur needs k = e - 1 >= 0
                if e >= 1:
                    ne = (e - 1) + cs[i + 1]
                    nxt[ne] = nxt.get(ne, 0) + coef
            else:
                # 1/(xi_cur - xi_next) = -sum_k xi_cur^k xi_next^(-k-1)
                # constant slice needs k = -e >= 0
                if e <= 0:
                    ne = (e - 1) + cs[i + 1]
                    nxt[ne] = nxt.get(ne, 0) - coef
        state = nxt
        if not state:
            return 0
    return state.get(0, 0)


def descent_rule_value(w, c) -> int:
    """(-1)^des(w) when Des(w) equals the prefix-deficit set of c, else 0."""
    ws = tuple(w)
    cs = tuple(c)
    n = len(ws) - 1
    descents = {i for i in range(n) if ws[i] > ws[i + 1]}
    prefix = 0
    target = set()
    for i in range(n):
        prefix += cs[i]
        if prefix < i + 1:
            target.add(i)
    if descents != target:
        return 0
    return -1 if len(descents) & 1 else 1


def two_block_degree(matroid: Matroid, v_block, w_block, convention: str = "oi") -> int:
    """Degree of gamma_v gamma_w via the flats separating the two blocks.

    v carries index 1, w reaches at least the largest proper flat size, the
    supports are disjoint and each block is sorted flatly contiguous, with
    total length r. The sum runs over flats of rank len(v) + 1: each
    contributes its gamma_{w_1} weight times the restriction degree of v
    times the contraction degree of the rest of w shifted down by the flat
    size.
    """
    vs = tuple(v_block)
    ws = tuple(w_block)
    r = matroid.r
    if not vs or not ws:
        raise PreconditionViolation("both blocks must be nonempty")
    if len(vs) + len(ws) != r:
        raise PreconditionViolation(f"block lengths must sum to {r}")
    if list(vs) != sorted(vs) or list(ws) != sorted(ws):
        raise PreconditionViolation("blocks must be sorted ascending")
    if any(x < 1 or x > matroid.n for x in vs + ws):
        raise PreconditionViolation("block entries must lie in 1..n")
    if set(vs) & set(ws):
        raise PreconditionViolation("block supports must be disjoint")
    if vs[0] != 1:
        raise PreconditionViolation("low block must contain index 1")
    if max(matroid.proper_flat_sizes()) > ws[-1]:
        raise PreconditionViolation(
            "largest proper flat size must not exceed the high block"
        )
    if not classify_support(matroid, vs).flatly_contiguous:
        raise PreconditionViolation("low block is not flatly contiguous")
    if not classify_support(matroid, ws).flatly_contiguous:
        raise PreconditionViolation("high block is not flatly contiguous")
    w1 = ws[0]
    w_rest = ws[1:]
    ell = len(vs)
    full = matroid.full_mask
    scale = weight_scale(matroid.m, convention)
    total = 0
    for flat in matroid.flats_by_rank[ell + 1]:
        wt = insertion_weight(0, full, flat, w1, convention, scale)
        if not wt:
            continue
        size = flat.bit_count()
        lower, _ = matroid.restriction(flat)
        upper, _ = matroid.contraction(flat)
        inner = gamma_product_degree(lower, vs, convention)
        if not inner:
            continue
        outer = c_degree(upper, tuple(x - size for x in w_rest), 0, convention)
        total += wt * inner * outer
    return _unscale(total, scale, "two-block sum")


def pg_identity_check(geometry, q: int, c):
    """Compare a projective-geometry degree with its q-Eulerian prediction.

    geometry is build_projective_geometry(r, q), built once by the caller,
    with r its geometry.r. Computes the degree of the product of
    gamma_{n_i}^{c_i} with n_i the rank-i flat size, and checks it equals
    q^(r(r+1)/2) times the q-deformed Eulerian number A_c(q). Returns
    (degree, prediction, equal).
    """
    r = geometry.r
    cs = check_composition(c, r, r)
    sizes = geometry.level_sizes()
    lhs = gamma_product_degree(geometry, [sizes[k] for k in composition_to_indices(cs)])
    rhs = q ** comb(r + 1, 2) * remixed_polynomial(r, cs)(q)
    return lhs, rhs, lhs == rhs
