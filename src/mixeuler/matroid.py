"""Loopless matroids on ground sets {0, ..., n} with exact lattice queries.

A matroid is stored as the cover table of its lattice of flats, each flat an
integer bitmask and each row a tuple indexed by element: step[f][x] is the
closure of f and x, the cover of f that gains x, or f itself when x is in f.
Levels and ranks are read off the table by walking up from the empty set,
and rank and closure queries walk it too, never re-running a rank oracle.
The constructors of uniform, basis, sparse paving and projective matroids
share one upward walk that asks for one closure per cover, since the covers
of a flat partition its complement. Basis and sparse paving matroids get it
from a rank oracle; a projective geometry takes the span of the flat and
the new point, a union of lines it computed once from the coordinate
vectors. Minors relabel their parent's rows, one int object per flat, and
truncations share the rows of the levels they keep;
build_from_flats, the one constructor of outside lattices, scans adjacent
levels for the covers and checks them.

Interval queries (flats_strictly_between) read a lazy per-matroid index:
the flats in level order and, per element, the bitsets of the flats that
contain it and of those that lack it. An interval is the AND, within the
rank window, of the first bitsets of lo's elements and the second of the
elements outside hi: one big-integer operation per element and one step
per flat returned, instead of a subset test of every flat in the window.
A read stores nothing: the one interval store is the engines' levels memo
(Matroid._levels), filled by the walkers that come back to an interval.

Element order is the natural integer order and minors relabel surviving
elements in that induced order; several downstream weight conventions
depend on "largest elements" being stable under taking minors, which this
preserves. Loops are rejected everywhere: the degree theory downstream is
only developed for loopless matroids.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, combinations, product
from math import comb

from .errors import (
    BasisExchangeViolation,
    EmptyInput,
    InternalError,
    LoopDetected,
    NonPrimeQ,
    NotAFlat,
    OverlapViolation,
    RankCollapse,
    RankOutOfRange,
    SizeViolation,
)

__all__ = [
    "Matroid",
    "MinorMap",
    "bits_of",
    "mask_of",
    "set_of",
    "largest_elements_mask",
    "build_uniform",
    "build_boolean",
    "build_from_bases",
    "build_sparse_paving",
    "build_projective_geometry",
    "build_from_flats",
]


def bits_of(mask: int):
    """Yield the set bits of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


def set_of(mask: int) -> tuple:
    return tuple(bits_of(mask))


def _squeeze(mask: int, gone) -> int:
    """Drop the bits at positions `gone`, given from the top down; higher bits move down."""
    for b in gone:
        mask = (mask & ((1 << b) - 1)) | ((mask >> (b + 1)) << b)
    return mask


def _ground_mask(elements, m: int, what: str) -> int:
    """mask_of(elements), raising SizeViolation for an element outside 0..m-1."""
    elements = tuple(elements)
    if any(not 0 <= e < m for e in elements):
        raise SizeViolation(f"{what} {sorted(elements)} leaves the ground set")
    return mask_of(elements)


def largest_elements_mask(universe: int, count: int) -> int:
    """Mask of the `count` largest elements of `universe`."""
    out = 0
    while count > 0 and universe:
        top = 1 << (universe.bit_length() - 1)
        out |= top
        universe ^= top
        count -= 1
    return out


class MinorMap(namedtuple("MinorMap", "parent_elements rank_dropped", defaults=(False,))):
    """Order-preserving relabeling from a minor back to its parent.

    parent_elements[i] is the parent element that child element i came from.
    rank_dropped is set by single-element deletion when the element was a
    coloop.
    """

    __slots__ = ()

    def to_child(self, parent_mask: int) -> int:
        out = 0
        for i, e in enumerate(self.parent_elements):
            if (parent_mask >> e) & 1:
                out |= 1 << i
        return out


class Matroid:
    """A loopless matroid, stored as the cover table of its lattice of flats.

    step[f] is a tuple of length m for every flat f: step[f][x] is the
    closure of f and element x, the cover of f that gains x, or f itself
    when x is in f. The initializer reads the levels and ranks off the table
    and checks only the shape of the rows it reads: use the module-level
    build_* constructors and the minor methods, which supply the table.

    A matroid never changes, so it memoises its degree engines, the intervals
    they come back to, what its relation pipelines learn about it, and its
    minors; a minor asked again, after its arguments are checked, is the
    same object, and minors with the same lattice share one child.
    """

    def __init__(self, m: int, step: dict, provenance: str = ""):
        if m < 1:
            raise EmptyInput("ground set must be nonempty")
        self.m = m
        self.full_mask = full = (1 << m) - 1
        levels = [(0,)]
        while levels[-1] != (full,):
            rows = [step[f] for f in levels[-1]]
            if any(type(row) is not tuple or len(row) != m for row in rows):
                raise InternalError("cover table row is not a tuple indexed by element")
            level = tuple(sorted(set().union(*rows).difference(levels[-1])))
            if not level or (full in level and len(level) > 1):
                raise InternalError("cover table is not graded")
            levels.append(level)
        self.rank_total = len(levels) - 1
        self.flats_by_rank = tuple(levels)
        self.provenance = provenance
        self._rank_of_flat = {f: k for k, level in enumerate(levels) for f in level}
        self._cover_step = step
        self._interval_index = None
        # (lo, hi) -> the flats strictly between by rank, each rank sorted by
        # size: the one interval store, filled by the walkers that come back
        # to an interval (expansion._levels), never by a public query or pvol
        self._levels = {}
        # convention -> (view, memo) of the auto degree engine (expansion.py),
        # filled by the first degree query under that convention
        self._degree_memos = {}
        # (convention, lo, hi, val) -> the scaled weight of each flat of
        # _levels[lo, hi] in gamma_val, one tuple per rank, filled by the flag
        # oracle (expansion._entering); the auto engine never reads it
        self._gap_weights = {}
        # convention -> {(canonical_key(), v, s): C(v, s)} over the minors that
        # recursion.deletion_contraction_degree reached from this matroid
        self._delcon = {}
        # element i -> (|cl(i)|, the contraction of cl(i), whether i is a
        # coloop): the pivot step of recursion._dc_step, set by its first
        # call (None until then: a matroid no relation reaches allocates
        # nothing), at most m entries
        self._pivots = None
        # (groups, sums) of recursion.eulerian_recursion_degree, set by its
        # first call: groups maps (child, shift) to the rank-1 flats with that
        # contraction and size and the corank-1 flats with that restriction
        # (shift 0), at most one group per flat; sums maps each (convention,
        # val) asked to (child, shift, summed weight in gamma_val) of the
        # groups whose weights do not cancel, at most 2n keys
        self._eulerian = None
        # (T_M(1, y), the Boolean matroid of the same rank) of
        # recursion.cv_via_tutte_convolution, set by its first call; the
        # Boolean keeps its own degree memo warm across calls
        self._convolution = None
        # (class table, descent-sum memo) of localization._class_entry, set by
        # the first permutation pass on this matroid; the memo keeps the lambda
        # monomials and (index, mixed vector) states of the gamma -> lambda
        # change of basis reached, at most (n + 1) times the compositions
        self._localization = None
        # (lower, upper) or a deleted element -> (child, MinorMap), and
        # (provenance, canonical_key()) -> the one child kept with that lattice;
        # a child holds no reference back to its parent
        self._minors = {}
        self._flat_sizes = None

    # -- lattice plumbing ------------------------------------------------

    def _walk(self, mask: int):
        c = 0
        rk = 0
        step = self._cover_step
        for x in bits_of(mask):
            if not (c >> x) & 1:
                c = step[c][x]
                rk += 1
                if c == self.full_mask:
                    break
        return c, rk

    def rank(self, mask: int) -> int:
        return self._walk(mask)[1]

    def closure(self, mask: int) -> int:
        return self._walk(mask)[0]

    def rank_of_flat(self, mask: int) -> int:
        try:
            return self._rank_of_flat[mask]
        except KeyError:
            raise NotAFlat(f"{set_of(mask)} is not a flat") from None

    @property
    def n(self) -> int:
        """Top index of the class family gamma_1 .. gamma_n."""
        return self.m - 1

    @property
    def r(self) -> int:
        """Top degree of the Chow ring: rank minus one."""
        return self.rank_total - 1

    def proper_flats(self):
        for k in range(1, self.rank_total):
            yield from self.flats_by_rank[k]

    def _lattice_index(self):
        """The flats in level order with two bitsets per element, built at first use.

        (flats, has, lacks, first, rank, full): bit i of has[x] is set when
        flats[i] contains element x and bit i of lacks[x] when it does not,
        the flats of rank k are flats[first[k]:first[k + 1]], rank maps a flat
        to its rank and full is the ground set. Plain data, so that the
        engines can bind it without the matroid.
        """
        if self._interval_index is None:
            flats = tuple(f for level in self.flats_by_rank for f in level)
            # the bitsets are the columns of the flats written as binary rows,
            # last flat first; the leftmost column is the top element's
            width = f"0{self.m}b"
            columns = zip(*(format(f, width) for f in reversed(flats)))
            has = tuple(int("".join(c), 2) for c in columns)[::-1]
            every = (1 << len(flats)) - 1
            # kept positive: a query ANDs it in without negating every flat's bit
            lacks = tuple(every ^ h for h in has)
            first = tuple(accumulate(map(len, self.flats_by_rank), initial=0))
            self._interval_index = (flats, has, lacks, first, self._rank_of_flat, self.full_mask)
        return self._interval_index

    def flats_strictly_between(self, lo: int, hi: int):
        """All flats G with lo < G < hi in level order, as a tuple.

        Read off the lattice index and kept nowhere: the flats of the ranks
        strictly between that contain every element of lo and no element
        outside hi. NotAFlat when lo or hi is not a flat.
        """
        self.rank_of_flat(lo), self.rank_of_flat(hi)  # NotAFlat unless both are flats
        return _read_between(self._lattice_index(), lo, hi)

    def corank_nullity_counts(self):
        """Counts of subsets by (corank, nullity), read off the lattice of flats.

        With f_F[j] the number of j-subsets whose closure is the flat F,
        f_F[j] = C(|F|, j) - sum over flats G < F of f_G[j] for j >= rank(F),
        walking the levels upward. An independent flat is the closure of
        itself only, so it never enters the sum of a flat above it.
        """
        top = self.rank_total
        counts = {}
        dependent = []  # (G, f_G) for the dependent flats of the levels below
        for k, level in enumerate(self.flats_by_rank):
            new = []
            for f in level:
                size = f.bit_count()
                if size > k:
                    got = {j: comb(size, j) for j in range(k, size + 1)}
                    for g, below in dependent:
                        if g & f == g:
                            for j, c in below.items():
                                if j >= k:
                                    got[j] -= c
                    new.append((f, got))
            counts[top - k, 0] = len(level) - len(new)  # the independent flats
            for _, got in new:
                for j, c in got.items():
                    counts[top - k, j - k] = counts.get((top - k, j - k), 0) + c
            dependent += new
        return counts

    # -- structure predicates ---------------------------------------------

    def is_coloop(self, i: int) -> bool:
        if not 0 <= i < self.m:
            raise RankOutOfRange(f"element {i} out of range")
        return self.rank(self.full_mask ^ (1 << i)) == self.rank_total - 1

    def level_sizes(self):
        """The one flat size of each rank 0..rank_total, or None when a rank has two.

        A simple matroid with one size per rank is a perfect matroid design.
        """
        sizes = tuple(level[0].bit_count() for level in self.flats_by_rank)
        for size, level in zip(sizes, self.flats_by_rank):
            if any(f.bit_count() != size for f in level):
                return None
        return sizes

    def canonical_key(self):
        return (self.m, self.rank_total, self.flats_by_rank)

    def proper_flat_sizes(self) -> tuple:
        """Sorted distinct sizes of nonempty proper flats."""
        if self._flat_sizes is None:
            self._flat_sizes = tuple(
                sorted({f.bit_count() for f in self.proper_flats()})
            )
        return self._flat_sizes

    def __repr__(self):
        tag = self.provenance or "matroid"
        return f"<Matroid {tag} m={self.m} rank={self.rank_total}>"

    # -- minors -------------------------------------------------------------

    def minor_interval(self, lower: int, upper: int):
        """Matroid on upper minus lower: restrict to upper, contract lower.

        Both arguments must be flats with lower contained in upper. Flats of
        the minor are exactly the flats of self between them, relabeled in
        induced element order, and so are their rows, cut to the elements of
        upper outside lower.
        """
        if lower & upper != lower:
            raise NotAFlat("lower flat is not contained in upper flat")
        if self.rank_of_flat(lower) == self.rank_of_flat(upper):
            raise RankCollapse("minor interval has rank 0")
        got = self._minors.get((lower, upper))
        if got is not None:
            return got
        elements = set_of(upper & ~lower)
        gone = set_of(self.full_mask & ~upper | lower)[::-1]
        flats = (lower, *self.flats_strictly_between(lower, upper), upper)
        child_of = {g: _squeeze(g, gone) for g in flats}
        step = {
            child_of[g]: tuple(child_of[self._cover_step[g][x]] for x in elements) for g in flats
        }
        child = Matroid(len(elements), step, provenance="minor")
        return self._keep_minor((lower, upper), child, MinorMap(elements))

    def restriction(self, flat: int):
        return self.minor_interval(0, flat)

    def contraction(self, flat: int):
        return self.minor_interval(flat, self.full_mask)

    def delete_element(self, i: int):
        """Single-element deletion. Rank drops exactly when i is a coloop.

        The flats of M minus i are the sets F - i over the flats F of M. The
        closure of F - i in M is F - i when that is a flat of M and F
        otherwise, so the row of F - i at x is the row of that closure at x,
        minus i. Each flat is squeezed once, and every row refers to it.
        """
        if not 0 <= i < self.m:
            raise RankOutOfRange(f"element {i} out of range")
        if self.m == 1:
            raise EmptyInput("cannot delete the last element")
        got = self._minors.get(i)
        if got is not None:
            return got
        bit = 1 << i
        child_of = {}  # level order: F - i, when a flat of M, comes before F
        for f in self._rank_of_flat:
            g = f & ~bit
            child_of[f] = child_of[g] if g in child_of else _squeeze(g, (i,))
        step = {}
        for f, row in self._cover_step.items():
            g = f & ~bit
            if g != f and g in self._rank_of_flat:
                continue  # F - i is a flat of M, with a row of its own
            step[child_of[f]] = tuple(map(child_of.__getitem__, row[:i] + row[i + 1 :]))
        child = Matroid(self.m - 1, step, provenance="deletion")
        elements = tuple(e for e in range(self.m) if e != i)
        return self._keep_minor(i, child, MinorMap(elements, child.rank_total < self.rank_total))

    def _keep_minor(self, key, child, minor_map):
        """Memoise the minor under key, reusing a kept child with the same lattice."""
        child = self._minors.setdefault((child.provenance, child.canonical_key()), child)
        self._minors[key] = child, minor_map
        return child, minor_map

    def truncate(self, s: int):
        """Drop the top s ranks, keeping the flats below and the ground set."""
        if s < 0:
            raise RankOutOfRange("truncation amount must be nonnegative")
        if s >= self.rank_total:
            raise RankCollapse(f"truncating rank {self.rank_total} by {s}")
        if s == 0:
            return self
        top, full = self.rank_total - s, self.full_mask
        step = {f: self._cover_step[f] for level in self.flats_by_rank[: top - 1] for f in level}
        for f in self.flats_by_rank[top - 1]:  # the new hyperplanes
            step[f] = tuple(f if (f >> x) & 1 else full for x in range(self.m))
        step[full] = (full,) * self.m
        return Matroid(self.m, step, provenance="truncation")


def _read_between(index: tuple, lo: int, hi: int):
    """The flats strictly between flats lo and hi, read off the lattice index.

    The candidates are the flats of the ranks strictly between; each element
    of lo keeps those that contain it, each element outside hi keeps those
    that lack it, and the survivors are read off in level order. lo and hi
    must be flats, unchecked; with no rank strictly between them (lo == hi,
    or hi covers lo) the answer is empty before any bitset is read.
    """
    flats, has, lacks, first, rank, full = index
    begin, end = first[rank[lo] + 1], first[rank[hi]]
    if begin >= end:
        return ()
    inside = (1 << end) - (1 << begin)
    for x in bits_of(lo):
        inside &= has[x]
    for x in bits_of(full & ~hi):
        inside &= lacks[x]
    bits = bin(inside >> begin)[:1:-1]  # bits[i] is bit begin + i of inside
    got = []
    i = bits.find("1")
    while i >= 0:
        got.append(flats[begin + i])
        i = bits.find("1", i + 1)
    return tuple(got)


# -- construction by one upward walk -----------------------------------------


def _from_closure(m: int, cover, provenance: str) -> Matroid:
    """Matroid whose flat f gaining element x is covered by cover(f, x).

    Walks up from the empty set one level at a time. The covers of a flat
    partition its complement, so cover is called once per cover: the
    elements a cover gains need no call of their own. Each flat is kept as
    the int object first found, and every row refers to that one.
    """
    full = (1 << m) - 1
    step = {}
    level = (0,)
    while level:
        above = {}  # each flat of the next level, mapped to itself
        for f in level:
            row = [f] * m
            rest = full & ~f
            while rest:
                x = (rest & -rest).bit_length() - 1
                g = cover(f, x)
                g = above.setdefault(g, g)
                gained = g & ~f
                if gained & (gained - 1):
                    for y in bits_of(gained):
                        row[y] = g
                else:  # g gains x alone
                    row[x] = g
                rest &= ~g
            step[f] = tuple(row)
        level = above
    return Matroid(m, step, provenance)


def _from_rank_oracle(m: int, rank_fn, provenance: str) -> Matroid:
    """The matroid of a rank oracle: the cover of f gaining x is cl(f + x)."""
    full = (1 << m) - 1
    if rank_fn(full) < 1:
        raise RankOutOfRange("matroid of rank 0")
    for x in range(m):
        if rank_fn(1 << x) == 0:
            raise LoopDetected(f"element {x} is a loop")

    def cover(f, x):
        g = f | (1 << x)
        base = rank_fn(g)
        return g | mask_of(y for y in bits_of(full & ~g) if rank_fn(g | (1 << y)) == base)

    return _from_closure(m, cover, provenance)


# -- constructors ------------------------------------------------------------


def build_uniform(rank: int, n_plus_1: int) -> Matroid:
    """Uniform matroid: every subset of size up to `rank` is independent."""
    if n_plus_1 < 1:
        raise RankOutOfRange(f"uniform matroid on {n_plus_1} elements needs at least 1 element")
    if not 1 <= rank <= n_plus_1:
        raise RankOutOfRange(f"uniform rank {rank} needs 1 <= rank <= {n_plus_1}")
    full = (1 << n_plus_1) - 1

    def cover(f, x):
        return f | (1 << x) if f.bit_count() < rank - 1 else full

    tag = "boolean" if rank == n_plus_1 else "uniform"
    return _from_closure(n_plus_1, cover, provenance=tag)


def build_boolean(n_plus_1: int) -> Matroid:
    if n_plus_1 < 1:
        raise RankOutOfRange(f"Boolean matroid on {n_plus_1} elements needs at least 1 element")
    return build_uniform(n_plus_1, n_plus_1)


def build_from_bases(ground_set_size: int, bases) -> Matroid:
    """Matroid from an explicit list of bases, with the exchange axiom checked.

    The check is exhaustive over ordered pairs of bases, so this is meant for
    desk-scale inputs.
    """
    if ground_set_size < 1:
        raise EmptyInput("ground set must be nonempty")
    basis_list = []
    seen = set()
    for b in bases:
        if len(set(b)) != len(tuple(b)):
            raise SizeViolation(f"basis {sorted(b)} repeats an element")
        mask = _ground_mask(b, ground_set_size, "basis")
        if mask not in seen:
            seen.add(mask)
            basis_list.append(mask)
    if not basis_list:
        raise EmptyInput("no bases given")
    size = basis_list[0].bit_count()
    for b in basis_list:
        if b.bit_count() != size:
            raise SizeViolation("bases of unequal size")
    covered = 0
    for b in basis_list:
        covered |= b
    if covered != (1 << ground_set_size) - 1:
        loose = set_of(((1 << ground_set_size) - 1) & ~covered)
        raise LoopDetected(f"elements {loose} lie in no basis")
    basis_set = set(basis_list)
    for b1 in basis_list:
        for b2 in basis_list:
            for x in bits_of(b1 & ~b2):
                probe = b1 ^ (1 << x)
                if not any(probe | (1 << y) in basis_set for y in bits_of(b2 & ~b1)):
                    raise BasisExchangeViolation(
                        f"no exchange for {x} from {set_of(b1)} into {set_of(b2)}"
                    )

    def rank_fn(mask):
        return max((mask & b).bit_count() for b in basis_list)

    return _from_rank_oracle(ground_set_size, rank_fn, provenance="bases")


def build_sparse_paving(rank: int, ground_set_size: int, circuit_hyperplanes) -> Matroid:
    """Sparse paving matroid: all rank-size sets are bases except the listed
    circuit-hyperplanes, which must pairwise meet in at most rank-2 elements.
    """
    if not 1 <= rank <= ground_set_size:
        raise RankOutOfRange(f"rank {rank} invalid for {ground_set_size} elements")
    chs = []
    for ch in circuit_hyperplanes:
        mask = _ground_mask(ch, ground_set_size, "circuit-hyperplane")
        if mask.bit_count() != rank or len(set(ch)) != len(tuple(ch)):
            raise SizeViolation(
                f"circuit-hyperplane {sorted(ch)} does not have size {rank}"
            )
        chs.append(mask)
    if chs and rank == ground_set_size:
        raise SizeViolation("circuit-hyperplane cannot be the whole ground set")
    for a, b in combinations(chs, 2):
        if (a & b).bit_count() > rank - 2:
            raise OverlapViolation(
                f"circuit-hyperplanes {set_of(a)} and {set_of(b)} share too much"
            )
    ch_set = set(chs)

    def rank_fn(mask):
        size = mask.bit_count()
        if size < rank:
            return size
        if size == rank and mask in ch_set:
            return rank - 1
        return rank

    return _from_rank_oracle(ground_set_size, rank_fn, provenance="sparse")


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def build_projective_geometry(r: int, q: int) -> Matroid:
    """Rank r+1 projective geometry over the prime field of order q.

    Elements are the points, ordered by their lexicographically normalized
    coordinate vectors (first nonzero coordinate scaled to 1). The cover of
    a flat f gaining point x is their span, the union of f and the lines
    through x and each point p of f. The line through p and x holds p, x
    and the q - 1 points of x + c p for nonzero c; every line is computed
    once, up front, by looking these vectors up among the nonzero multiples
    of the points.
    """
    if r < 1:
        raise RankOutOfRange("projective geometry needs r >= 1")
    if not _is_prime(q):
        raise NonPrimeQ(f"{q} is not prime")
    points = [v for v in product(range(q), repeat=r + 1) if any(v) and next(filter(None, v)) == 1]
    point_of = {tuple(c * a % q for a in v): i for i, v in enumerate(points) for c in range(1, q)}
    line = [[0] * len(points) for _ in points]  # line[p][x]: the line through points p and x
    for p, w in enumerate(points):
        for x, v in enumerate(points):
            if x != p and not line[p][x]:
                mask = (1 << p) | (1 << x)
                for c in range(1, q):
                    mask |= 1 << point_of[tuple((a + c * b) % q for a, b in zip(v, w))]
                for y in bits_of(mask):
                    line[p][y] = mask

    def cover(f, x):
        g = f | (1 << x)
        for p in bits_of(f):
            g |= line[p][x]
        return g

    return _from_closure(len(points), cover, provenance="pg")


def build_from_flats(ground_set_size: int, flats_by_rank) -> Matroid:
    """Matroid from explicit flat lists, one list per rank starting at 0.

    Checks the defining lattice axioms: the bottom level is the empty set,
    the top is the ground set, intersections of flats are flats, and the
    covers of each flat, found by scanning the level above, partition its
    complement; every flat must cover one of the level below.
    """
    if ground_set_size < 1:
        raise EmptyInput("ground set must be nonempty")
    full = (1 << ground_set_size) - 1
    levels = []
    seen = set()
    for level in flats_by_rank:
        masks = []
        for flat in level:
            mask = _ground_mask(flat, ground_set_size, "flat")
            if mask in seen:
                raise SizeViolation(f"flat {sorted(flat)} listed twice")
            seen.add(mask)
            masks.append(mask)
        levels.append(sorted(masks))
    if not levels or levels[0] != [0]:
        raise LoopDetected("rank-0 level must be exactly the empty set")
    if levels[-1] != [full]:
        raise NotAFlat("top level must be exactly the ground set")
    for a in seen:
        for b in seen:
            if a < b and (a & b) not in seen:
                raise NotAFlat(
                    f"intersection of flats {set_of(a)} and {set_of(b)} is not a flat"
                )
    if len(levels) - 1 > ground_set_size:
        raise RankOutOfRange(f"rank {len(levels) - 1} invalid for {ground_set_size} elements")
    step = {full: (full,) * ground_set_size}
    for lower, upper in zip(levels, levels[1:]):
        for f in lower:
            row = [f if (f >> x) & 1 else None for x in range(ground_set_size)]
            for g in upper:
                if f & g == f:
                    for x in bits_of(g & ~f):
                        if row[x] is not None:
                            raise NotAFlat(
                                f"element {x} lies in two covers of flat {set_of(f)}"
                            )
                        row[x] = g
            if None in row:
                missing = [x for x, g in enumerate(row) if g is None]
                raise NotAFlat(
                    f"covers of flat {set_of(f)} do not partition the complement"
                    f" (no cover gains {missing[:3]})"
                )
            step[f] = tuple(row)
        stray = set(upper).difference(*(step[f] for f in lower))
        if stray:
            raise NotAFlat(f"flat {set_of(min(stray))} covers no flat of the level below")
    return Matroid(ground_set_size, step, provenance="flats")
