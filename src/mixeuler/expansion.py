"""Hypersimplex classes and their products in the Chow ring of a matroid.

For a loopless matroid on {0..n} of rank r+1, the Chow ring is spanned in
degree one by the classes x_F of proper nonempty flats, and carries a family
gamma_1, ..., gamma_n of nef divisor classes (pullbacks of the hypersimplex
classes from the permutohedral variety). This module expands products
gamma_{v_1} * ... * gamma_{v_r} into the weighted basis of flags of flats and
reads off the degree: the matroidal mixed Eulerian number
A_c(M) = deg(gamma_1^{c_1} * ... * gamma_n^{c_n}).

Two weight conventions are supported and must agree on every degree:

* "oi": gamma_k = sum over flats S of OI_E(S, T) x_S, where T is the set of
  the n+1-k largest elements and OI is the over-intersection, the amount by
  which |S cap T| exceeds the generic overlap. Integer weights.
* "mult": gamma_k = sum over flats S of (min(|S|, k) - k|S|/(n+1)) x_S.
  Rational weights. Every engine scales them by L = lcm(1..n+1), which makes
  each weight an integer (insertion_weight), and divides the finished sum by
  L^r once; a degree that does not come out an integer raises InternalError.

Multiplying a weighted flag sum by gamma_k inserts one new flat into each
flag: if some flat of the flag has size exactly k the term dies, otherwise
there is a unique gap (F, G) in the flag with |F| < k < |G| (the ends padded
with the empty set and the ground set), and every flat strictly between F
and G enters with the convention's weight computed inside the interval.

Engines:

* "auto", the interval DP. Postnikov's trees factor at the first flat
  inserted: v_1 puts a flat G into the gap (lo, hi); a later class below |G|
  then goes to the restriction [lo, G], one above it to the contraction
  [G, hi], and one equal to |G| kills the term. So
  deg(lo, hi, vs) = sum_G w(lo, hi, G, v_1) deg(lo, G, vs_<) deg(G, hi, vs_>).
  A full flag puts exactly a of the later classes v_2, v_3, ... below a G
  of rank rank(lo) + a + 1, so G can enter only when |G| lies strictly
  between the a-th and the (a+1)-th of them. The DP reads the flats of
  each interval by rank, sorted by size, from the matroid's one interval
  store (_levels), and bisects that window out of each rank (_window),
  never visiting the flats outside it. It sets the gap (lo, hi) up for v_1
  once per interval (_gap_weight: the oi top mask, the mult constants) and
  calls the result on each flat of the windows. On perfect matroid designs
  (projective geometries, uniform and Boolean matroids), where all flats
  of one rank have one size, it walks ranks instead, weighting each rank
  by the total weight of its flats in the interval, in closed form; that
  view keeps each gap's weights, one per rank, in a memo of at most
  R(R+1)/2 * n gaps (R the rank), which dies with the matroid. On
  other matroids an interval [lo, hi] with rank(hi) - rank(lo) = |hi - lo|
  is Boolean: every set between is a flat, and its degrees are Postnikov's
  mixed Eulerian numbers, which depend on |hi - lo| alone. The flat view
  answers it on the rank view of the Boolean matroid B_R, R the rank, over
  the ranks 0 and |hi - lo|, and reads none of its flats. The matroid owns
  the memo on (lo, hi, vs), one per convention, next to the lattice view
  the DP walks (and B_R's view with its memo): every auto query on one
  matroid reuses the sub-interval degrees of the queries before it, and
  all of them die with the matroid.
* "flag", the term-by-term flag expansion above. It is the reference oracle
  the DP is tested against and the backend of expand_gamma_product. It drops
  a partial flag as soon as it must die: a flat whose size is a class still
  to insert (a hit), and, on a product of length r, where every surviving
  term is a maximal flag, a flat outside the DP's window of its rank, taken
  over the classes left inside the gap. It reads the same interval store;
  the matroid keeps the insertion weights of each gap and class for it,
  apart from the DP's memo, and each call windows them in a table of its
  own (_entering), which tree enumeration shares.

pvol runs the same DP on the same view, with each flat's weight summed over
every class index in closed form (_gap_weight_total); every flat of an
interval takes a class there, so it walks them all, read off the lattice
index and stored nowhere. It too answers a Boolean interval on B_R's view.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import partial
from itertools import combinations, groupby
from math import comb, factorial, lcm, prod

from .errors import CompositionMismatch, InternalError, RankTooSmall, VOutOfRange
from .matroid import Matroid, _read_between, bits_of

__all__ = [
    "CONVENTIONS",
    "weight_scale",
    "insertion_weight",
    "compositions",
    "check_composition",
    "composition_to_indices",
    "indices_to_composition",
    "WeightedFlagSum",
    "expand_gamma_product",
    "gamma_product_degree",
    "mixed_eulerian_degree",
    "pvol",
    "count_initial_descending_flags",
    "LogConcavityResult",
    "log_concavity_check",
]

CONVENTIONS = ("oi", "mult")
_ENGINES = ("auto", "flag")


def weight_scale(m: int, convention: str) -> int:
    """Factor that makes every insertion weight on m elements an integer."""
    return lcm(*range(1, m + 1)) if convention == "mult" else 1


def insertion_weight(
    lo: int, hi: int, g: int, val: int, convention: str, scale: int
) -> int:
    """Weight, times scale, with which flat g enters the gap (lo, hi) for gamma_val.

    lo < g < hi are flat bitmasks and |lo| < val < |hi|. Under oi this is
    the over-intersection of g with the |hi| - val largest elements of
    hi - lo. Under mult it is min(s, k) - k s / u with s, k and u counted
    from lo; scale must be a multiple of u, as weight_scale(m, "mult") is
    for every gap, so the result is an integer.
    """
    lo_size = lo.bit_count()
    if convention == "oi":
        top = hi & ~lo
        for _ in range(val - lo_size):
            top &= top - 1  # drop the smallest element left
        return scale * ((g & top).bit_count() - max(0, g.bit_count() - val))
    s = g.bit_count() - lo_size
    k = val - lo_size
    return scale * min(s, k) - scale // (hi.bit_count() - lo_size) * k * s


def _gap_weight(lo, hi, val, convention, scale):
    """insertion_weight(lo, hi, g, val, convention, scale) as a function of
    the flat g alone, with what depends only on the gap worked out once: the
    top mask under oi, |lo|, val - |lo| and scale // |hi - lo| under mult.
    The DP's flat view calls it once per gap, and the rank view once per
    gap under mult; the flag oracle, tree growth and the relations call
    insertion_weight, so they check it."""
    lo_size = lo.bit_count()
    if convention == "oi":
        top = hi & ~lo
        for _ in range(val - lo_size):
            top &= top - 1
        # max(0, |g| - val), spelled without a call
        return lambda g: scale * ((g & top).bit_count() - ((s := g.bit_count()) > val and s - val))
    k = val - lo_size
    step = scale // (hi.bit_count() - lo_size) * k
    # scale * min(s, k) - step * s, one branch for each side of k
    low, high = scale - step, scale * k
    return lambda g: low * s if (s := g.bit_count() - lo_size) <= k else high - step * s


def _gap_weight_total(lo: int, hi: int, g: int, convention: str, scale: int) -> int:
    """insertion_weight(lo, hi, g, val, ...) summed over every |lo| < val < |hi|.

    With s = |g - lo|, u = |hi - lo| and j(x) the 0-based position of x
    among the elements of hi - lo in ascending order, the sum is
    sum_{x in g - lo} j(x) - s(s-1)/2 under oi and scale s(u-s)/2 under
    mult; scale is even for every gap that has a flat inside it.
    """
    lo_size = lo.bit_count()
    s = g.bit_count() - lo_size
    if convention == "oi":
        gap = hi & ~lo
        positions = sum((gap & ((1 << x) - 1)).bit_count() for x in bits_of(g & ~lo))
        return scale * (positions - s * (s - 1) // 2)
    return scale * s * (hi.bit_count() - lo_size - s) // 2


def compositions(total: int, parts: int):
    """All weak compositions of `total` into `parts` parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for bars in combinations(range(total + parts - 1), parts - 1):
        out = []
        prev = -1
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def check_composition(c, parts: int, total: int) -> tuple:
    """c as a tuple; CompositionMismatch unless it is a weak composition of total."""
    cs = tuple(c)
    if len(cs) != parts:
        raise CompositionMismatch(f"composition has {len(cs)} parts, need {parts}")
    if cs and min(cs) < 0:
        raise CompositionMismatch("composition entries must be nonnegative")
    if sum(cs) != total:
        raise CompositionMismatch(f"composition sums to {sum(cs)}, need {total}")
    return cs


def composition_to_indices(c) -> tuple:
    """(c_1..c_n) to the sorted index vector with k repeated c_k times."""
    out = []
    for k, ck in enumerate(c, start=1):
        if ck:
            out.extend([k] * ck)
    return tuple(out)


def indices_to_composition(v, n: int) -> tuple:
    out = [0] * n
    for k in v:
        if not 1 <= k <= n:
            raise VOutOfRange(f"index {k} outside 1..{n}")
        out[k - 1] += 1
    return tuple(out)


def _check_convention(convention: str):
    if convention not in CONVENTIONS:
        raise VOutOfRange(f"unknown weight convention {convention!r}")


def _unscale(total: int, divisor: int, what: str = "degree") -> int:
    """total / divisor, which must be exact."""
    quotient, rest = divmod(total, divisor)
    if rest:
        from fractions import Fraction

        raise InternalError(f"{what} {Fraction(total, divisor)} is not an integer")
    return quotient


class WeightedFlagSum(namedtuple("WeightedFlagSum", "matroid convention terms")):
    """A linear combination of flags of proper flats, keyed by flag tuple.

    Flags are tuples of flat bitmasks in increasing chain order. Weights are
    ints under the oi convention and Fractions under mult. len() counts the
    terms, not the fields.
    """

    __slots__ = ()

    def total(self):
        return sum(self.terms.values())

    def __len__(self):
        return len(self.terms)


# -- the flag engine: the reference oracle --------------------------------------


def _find_gap(flag, val):
    """Gap index for inserting a flat of target size val, or None on a hit."""
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


def _entering(matroid, table, lo, hi, vs, i, convention, scale):
    """(g, weight times scale) for every flat g that class vs[i] puts into
    the gap (lo, hi) with a nonzero weight and after which the flag can
    still finish, kept in the call's table on (lo, hi, i).

    The flats come from the matroid's interval store (_levels) and their
    weights from its table (Matroid._gap_weights), on (convention, lo, hi,
    vs[i]), which every call shares. Only the filter is per call, and it
    reads the classes still to insert, vs[i + 1:]: a g whose size is one of
    them dies there at any length (a hit). On a product of length r the
    flag must become maximal, so the classes left inside the gap fill its
    ranks as in the DP, and g must lie in its rank's window of them. Since
    no flag that reaches a gap carries a hit, _find_gap always finds one.
    """
    gap = table.get((lo, hi, i))
    if gap is None:
        val, rest = vs[i], vs[i + 1 :]
        levels = _levels(matroid._levels, matroid._lattice_index(), lo, hi)
        weights = matroid._gap_weights.get((convention, lo, hi, val))
        if weights is None:
            weights = matroid._gap_weights[convention, lo, hi, val] = tuple(
                tuple(insertion_weight(lo, hi, g, val, convention, scale) for g in flats)
                for flats, _ in levels
            )
        gap = []
        if len(vs) == matroid.r:
            lo_size, hi_size = lo.bit_count(), hi.bit_count()
            inside = sorted(v for v in rest if lo_size < v < hi_size)
            for a, ((flats, sizes), wts) in enumerate(zip(levels, weights)):
                window = _window(sizes, inside, a)
                gap += [(g, wt) for g, wt in zip(flats[window], wts[window]) if wt]
        else:
            for (flats, sizes), wts in zip(levels, weights):
                gap += [(g, wt) for g, s, wt in zip(flats, sizes, wts) if wt and s not in rest]
        table[lo, hi, i] = gap
    return gap


def _expand(matroid, vs, convention, scale):
    """Flag -> weight times scale^len(vs), inserting the classes left to right."""
    full = matroid.full_mask
    table = {}
    terms = {(): 1}
    for i, val in enumerate(vs):
        new = {}
        for flag, w in terms.items():
            idx = _find_gap(flag, val)
            lo = flag[idx - 1] if idx else 0
            hi = flag[idx] if idx < len(flag) else full
            for g, wt in _entering(matroid, table, lo, hi, vs, i, convention, scale):
                nf = flag[:idx] + (g,) + flag[idx:]
                new[nf] = new.get(nf, 0) + w * wt
        terms = new
    return terms


def _validate_product(matroid, vs):
    if len(vs) > matroid.r:
        raise VOutOfRange(f"product of {len(vs)} classes exceeds top degree {matroid.r}")
    for val in vs:
        if not 1 <= val <= matroid.n:
            raise VOutOfRange(f"index {val} outside 1..{matroid.n}")


def expand_gamma_product(matroid: Matroid, v, convention: str = "oi") -> WeightedFlagSum:
    """Expand gamma_{v_1} * ... * gamma_{v_k} over flags, left to right.

    Every v_i must lie in 1..n and the product length may not exceed r. The
    resulting weights depend on the order of v; the total over full-length
    flags (the degree) does not.
    """
    _check_convention(convention)
    vs = tuple(v)
    _validate_product(matroid, vs)
    scale = weight_scale(matroid.m, convention)
    terms = _expand(matroid, vs, convention, scale)
    if convention == "mult":
        from fractions import Fraction

        denom = scale ** len(vs)
        terms = {flag: Fraction(w, denom) for flag, w in terms.items()}
    return WeightedFlagSum(matroid, convention, terms)


# -- the interval DP --------------------------------------------------------------


# A lattice as the DP walks it. between(lo, hi) lists the nodes strictly
# inside an interval, each standing for one flat or for all flats of one
# rank, and levels(lo, hi) holds them as one (nodes, sizes) pair per rank
# from the lowest, in order of size. weight(lo, hi, val) is the gap's
# weight for gamma_val, set up once per gap: called on a node g, it gives
# the insertion weight of g times scale, summed over the flats g stands
# for. total(lo, hi, g) is that weight summed over every val. gaps is None
# on a flat view, which sets each gap up afresh; on a rank view it keeps
# each gap's weights as a dict {k: weight} on (a, b, val), at most
# R(R+1)/2 * n of them, and weight returns the dict's __getitem__. boolean
# is None on a rank view; on a flat view it is the rank view of the
# Boolean matroid B_R (R the rank of the matroid) and that view's degree
# memo, on which the DP answers every Boolean interval. A view is kept on
# its matroid, so it holds no reference to the matroid: the matroid dies
# without the cycle collector.
_View = namedtuple("_View", "bottom top rank between levels weight total scale gaps boolean")


def _levels(store, index, lo, hi):
    """The flats strictly inside [lo, hi], one (flats, sizes) pair per rank
    from the lowest, each sorted by size: read off the lattice index in
    level order once per interval (every rank between holds a flat, as the
    lattice is graded) and kept in store, the matroid's Matroid._levels."""
    got = store.get((lo, hi))
    if got is None:
        by_rank = groupby(_read_between(index, lo, hi), index[4].__getitem__)
        by_rank = [tuple(sorted(flats, key=int.bit_count)) for _, flats in by_rank]
        got = store[lo, hi] = tuple((flats, tuple(map(int.bit_count, flats))) for flats in by_rank)
    return got


def _window(sizes, rest, a):
    """The slice of the nodes of rank offset a, sorted by size, that a full
    flag can fill: a of the sorted classes rest go below such a node, so its
    size lies strictly between rest[a - 1] and rest[a]."""
    start = bisect_right(sizes, rest[a - 1]) if a else 0
    stop = bisect_left(sizes, rest[a]) if a < len(rest) else len(sizes)
    return slice(start, stop)


def _flat_view(matroid, convention, scale):
    """Nodes are the flats themselves, as bitmasks; only levels stores them.
    B_R's view takes the matroid's scale; with _rank_view giving None, none."""
    rank = matroid._rank_of_flat.__getitem__
    index = matroid._lattice_index()
    between = partial(_read_between, index)
    levels = partial(_levels, matroid._levels, index)
    weight = partial(_gap_weight, convention=convention, scale=scale)
    total = partial(_gap_weight_total, convention=convention, scale=scale)
    boolean = _rank_view(tuple(range(matroid.rank_total + 1)), convention, scale)
    boolean = boolean and (boolean, {})
    return _View(0, matroid.full_mask, rank, between, levels, weight, total, scale, None, boolean)


def _rank_view(n, convention, scale):
    """Node k stands for every rank-k flat; None when n, the one flat size of
    each rank (Matroid.level_sizes()), is None.

    The covers of a rank-i flat inside a rank-b flat split the rest of it
    into blocks of n[i+1] - n[i] elements. So every interval of ranks a < b
    has ch[a, b] maximal chains, ch[a, k] * ch[k, b] of them through each of
    its count[a, k, b] flats of rank k, and each of its top elements lies in
    count[a + 1, k, b] of these flats. The weights sum over the flats in closed
    form from sizes and counts, never the matroid. The counts and the oi weight
    need only +, -, *, exact // and an order, so sizes may lie in Z[q] (pmd).
    Each gap's weights are worked out at its first call and kept in gaps.
    """
    if n is None:
        return None
    ch = {}
    for b in range(len(n)):
        ch[b, b] = 1
        for a in range(b - 1, -1, -1):
            ch[a, b] = ch[a + 1, b] * ((n[b] - n[a]) // (n[a + 1] - n[a]))
    count = {(a, k, b): ch[a, b] // (ch[a, k] * ch[k, b]) for a, b in ch for k in range(a, b + 1)}
    if convention == "oi":

        def row(a, b, val):
            return {
                k: scale * ((n[b] - val) * count[a + 1, k, b] - count[a, k, b] * max(0, n[k] - val))
                for k in range(a + 1, b)
            }

        def total(a, b, k):
            u, s = n[b] - n[a], n[k] - n[a]
            return scale * (count[a + 1, k, b] * u * (u - 1) - count[a, k, b] * s * (s - 1)) // 2

    else:
        # mult weights depend on sizes only: one flat, as a prefix mask, stands for all
        mask = [(1 << size) - 1 for size in n]
        one_total = partial(_gap_weight_total, convention=convention, scale=scale)

        def row(a, b, val):
            one = _gap_weight(mask[a], mask[b], val, convention, scale)
            return {k: count[a, k, b] * one(mask[k]) for k in range(a + 1, b)}

        def total(a, b, k):
            return count[a, k, b] * one_total(mask[a], mask[b], mask[k])

    gaps = {}

    def weight(a, b, val):
        got = gaps.get((a, b, val))
        if got is None:
            got = gaps[a, b, val] = row(a, b, val).__getitem__
        return got

    def between(a, b):
        return range(a + 1, b)

    levels = {(a, b): tuple(((k,), (n[k],)) for k in between(a, b)) for a, b in ch}
    return _View(0, len(n) - 1, int, between, lambda a, b: levels[a, b], weight, total, scale, gaps, None)


def _pick_view(matroid, convention, engine):
    """The matroid's (view, memo) of the DP for an engine name, None for flag.

    Built at the first auto query under convention and kept on the matroid,
    so the view binds insertion_weight and _flat_view as they were then.
    """
    if engine not in _ENGINES:
        raise VOutOfRange(f"unknown engine {engine!r}")
    if engine == "flag":
        return None
    state = matroid._degree_memos.get(convention)
    if state is None:
        scale = weight_scale(matroid.m, convention)
        view = _rank_view(matroid.level_sizes(), convention, scale) or _flat_view(
            matroid, convention, scale
        )
        state = matroid._degree_memos[convention] = (view, {})
    return state


def _deg(view, memo, lo, hi, vs):
    """scale^len(vs) times the degree of the sorted product vs on [lo, hi].

    memo maps (lo, hi, vs) to it and must belong to view; the loop reads its
    hits inline, without a call. A Boolean interval of a flat view is read
    off view.boolean, with the classes counted from lo. Module-level, as is
    _vol: a recursive closure would leave a cycle behind every query.
    """
    key = (lo, hi, vs)
    got = memo.get(key)
    if got is None:
        u = view.boolean and hi.bit_count() - lo.bit_count()
        if u and view.rank(hi) - view.rank(lo) == u:  # a Boolean interval
            shift = lo.bit_count()
            got = _deg(*view.boolean, 0, u, tuple(v - shift for v in vs))
        else:
            weight = view.weight(lo, hi, vs[0])
            rest = vs[1:]
            got = 0
            for a, (nodes, sizes) in enumerate(view.levels(lo, hi)):
                below, above = rest[:a], rest[a:]
                for g in nodes[_window(sizes, rest, a)]:
                    wt = weight(g)
                    if wt and below:
                        left = memo.get((lo, g, below))
                        wt *= _deg(view, memo, lo, g, below) if left is None else left
                    if wt and above:
                        right = memo.get((g, hi, above))
                        wt *= _deg(view, memo, g, hi, above) if right is None else right
                    got += wt
        memo[key] = got
    return got


def _vol(view, memo, lo, hi, inner):
    """scale^j times the degree of (gamma_1 + ... + gamma_n)^j on [lo, hi],
    j the number of classes it receives; memo maps (lo, hi) to it. A
    Boolean interval of a flat view is read off view.boolean, whose (0, u)
    keys go to inner, a memo of their own."""
    rank = view.rank
    j = rank(hi) - rank(lo) - 1
    if not j:
        return 1
    got = memo.get((lo, hi))
    if got is None and view.boolean and j + 1 == hi.bit_count() - lo.bit_count():
        got = memo[lo, hi] = _vol(view.boolean[0], inner, 0, j + 1, None)
    elif got is None:
        base = rank(lo) + 1
        got = 0
        for g in view.between(lo, hi):
            wt = view.total(lo, hi, g)
            if wt:
                # the j - 1 later classes interleave, a of them below g
                a = rank(g) - base
                below, above = _vol(view, memo, lo, g, inner), _vol(view, memo, g, hi, inner)
                got += wt * comb(j - 1, a) * below * above
        memo[lo, hi] = got
    return got


def gamma_product_degree(
    matroid: Matroid, v, convention: str = "oi", engine: str = "auto"
) -> int:
    """Degree of the product of the gamma_{v_i}, 0 when it trivially dies.

    Liberal on input: an index outside 1..n, or a product length different
    from r, gives 0. Recursive identities lean on that convention.
    """
    _check_convention(convention)
    state = _pick_view(matroid, convention, engine)
    vs = tuple(sorted(v))
    if len(vs) != matroid.r:
        return 0
    if vs and (vs[0] < 1 or vs[-1] > matroid.n):
        return 0
    if state is None:
        scale = weight_scale(matroid.m, convention)
        total = sum(_expand(matroid, vs, convention, scale).values())
    else:
        view, memo = state
        scale = view.scale
        total = _deg(view, memo, view.bottom, view.top, vs) if vs else 1
    return _unscale(total, scale ** len(vs))


def mixed_eulerian_degree(
    matroid: Matroid, c, convention: str = "oi", engine: str = "auto"
) -> int:
    """A_c(M) for a composition c = (c_1..c_n) of r."""
    cs = check_composition(c, matroid.n, matroid.r)
    return gamma_product_degree(
        matroid, composition_to_indices(cs), convention, engine
    )


def pvol(matroid: Matroid, convention: str = "oi", engine: str = "auto") -> int:
    """Degree of (gamma_1 + ... + gamma_n)^r, the permutohedral volume.

    Equals the multinomial-weighted sum of all A_c(M). The DP gets it in one
    pass, weighting each flat by its insertion weight summed over every class
    index (_gap_weight_total), on the matroid's view but with its own memo.
    On a flat view it reads each Boolean interval [lo, hi] off the rank view
    of B_R, as the degrees do: that interval's volume is B_R's on the ranks
    0 and |hi - lo|, kept in a second memo of the call's own. Engine "flag"
    takes the multinomial sum over the flag oracle.
    """
    _check_convention(convention)
    r = matroid.r
    state = _pick_view(matroid, convention, engine)
    if state is not None:
        view = state[0]
        return _unscale(_vol(view, {}, view.bottom, view.top, {}), view.scale ** r)
    return sum(
        factorial(r) // prod(map(factorial, c))
        * mixed_eulerian_degree(matroid, c, convention, "flag")
        for c in compositions(r, matroid.n)
    )


def count_initial_descending_flags(matroid: Matroid, k: int) -> int:
    """Flags F_1 < ... < F_k with rank(F_i) = i and strictly falling minima.

    The minimum of F_k must itself be positive (element 0 appears in no
    flat of the flag). The count for k equals the k-th coefficient of the
    reduced characteristic polynomial, up to sign.
    """
    if k < 0 or k > matroid.r:
        raise VOutOfRange(f"flag length {k} outside 0..{matroid.r}")
    return _descending_flags(matroid.flats_by_rank[1 : k + 1], 0, matroid.m)


def _descending_flags(levels, flat, prev_min):
    """Descending flags that continue from flat through one flat of each level.

    Module-level, as are _deg and _vol, so that no call leaves a cycle.
    """
    if not levels:
        return 1
    total = 0
    for g in levels[0]:
        if flat & g == flat:
            g_min = (g & -g).bit_length() - 1
            if 0 < g_min < prev_min:
                total += _descending_flags(levels[1:], g, g_min)
    return total


class LogConcavityResult(namedtuple("LogConcavityResult", "middle left right")):
    """A_{c+e_i+e_j}, A_{c+2e_i} and A_{c+2e_j} of one log-concavity check."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.middle * self.middle >= self.left * self.right


def log_concavity_check(
    matroid: Matroid, c, i: int, j: int, convention: str = "oi"
) -> LogConcavityResult:
    """Compare A_{c+e_i+e_j}^2 against A_{c+2e_i} * A_{c+2e_j}; needs r >= 2."""
    if matroid.r < 2:
        raise RankTooSmall(f"log-concavity check needs r >= 2, got r = {matroid.r}")
    n = matroid.n
    cs = check_composition(c, n, matroid.r - 2)
    if not (1 <= i <= n and 1 <= j <= n):
        raise VOutOfRange("class indices outside 1..n")

    def bump(a, b):
        out = list(cs)
        out[a - 1] += 1
        out[b - 1] += 1
        return mixed_eulerian_degree(matroid, out, convention)

    return LogConcavityResult(bump(i, j), bump(i, i), bump(j, j))
