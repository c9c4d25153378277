"""Construction, rank/closure walks, minors, and input validation."""

from itertools import product

import pytest

from mixeuler import (
    Matroid,
    bits_of,
    build_boolean,
    build_from_bases,
    build_from_flats,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
    mask_of,
    set_of,
)
from mixeuler.errors import (
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
from mixeuler.catalog import named_catalog
from mixeuler.matroid import _from_rank_oracle, _read_between

from reference import corank_nullity_counts as reference_counts
from reference import flats_between_scan
from seeded import (
    SPARSE_PAVING_SEEDS,
    random_sparse_paving,
    seeded_circuit_hyperplanes,
    seeded_sparse_paving,
)

FANO_LINES = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5), (2, 3, 6), (1, 4, 6), (0, 5, 6)]


def test_uniform_flat_counts():
    m = build_uniform(3, 5)
    assert [len(level) for level in m.flats_by_rank] == [1, 5, 10, 1]
    assert m.n == 4 and m.r == 2
    assert m.level_sizes() == (0, 1, 2, 5)


def test_boolean_is_uniform_on_full_rank():
    b = build_boolean(4)
    assert b.rank_total == 4
    assert b.provenance == "boolean"
    assert b.rank(mask_of([0, 1, 2, 3])) == 4


def test_uniform_on_no_elements_names_the_ground_set():
    # the empty ground set has its own message, as build_boolean's
    for rank in (0, 2):
        with pytest.raises(RankOutOfRange, match="^uniform matroid on 0 elements needs"):
            build_uniform(rank, 0)
    with pytest.raises(RankOutOfRange, match="^uniform rank 0 needs 1 <= rank <= 3$"):
        build_uniform(0, 3)


def test_rank_and_closure_walks():
    m = build_uniform(3, 6)
    s = mask_of([0, 4])
    assert m.rank(s) == 2
    assert m.closure(s) == s
    t = mask_of([0, 1, 2, 3])
    assert m.rank(t) == 3
    assert m.closure(t) == m.full_mask


def test_projective_geometry_fano():
    f = build_projective_geometry(2, 2)
    lines = sorted(tuple(set_of(x)) for x in f.flats_by_rank[2])
    assert lines == sorted(FANO_LINES)
    assert f.rank(mask_of([0, 1, 2])) == 2
    assert f.rank(mask_of([0, 1, 3])) == 3


def test_projective_geometry_pg23_counts():
    p = build_projective_geometry(2, 3)
    assert p.m == 13
    assert len(p.flats_by_rank[2]) == 13
    assert all(f.bit_count() == 4 for f in p.flats_by_rank[2])


def test_pg_rejects_nonprime_field_order():
    with pytest.raises(NonPrimeQ):
        build_projective_geometry(2, 4)
    with pytest.raises(RankOutOfRange):
        build_projective_geometry(0, 2)


def test_sparse_paving_flats():
    m = build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)])
    assert m.rank(mask_of([0, 1, 2])) == 2
    assert m.rank(mask_of([0, 1, 3])) == 3
    assert mask_of([0, 1, 2]) in m.flats_by_rank[2]
    # non-circuit triples are spanning, so rank-2 flats are the two circuit
    # hyperplanes plus all pairs not inside one
    assert len(m.flats_by_rank[2]) == 2 + (15 - 6)


def test_sparse_paving_overlap_rejected():
    with pytest.raises(OverlapViolation):
        build_sparse_paving(3, 6, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(SizeViolation):
        build_sparse_paving(3, 6, [(0, 1)])


def test_rank_one_sparse_paving_is_uniform():
    # rank 1 is in range: with no circuit-hyperplane it is U(1, m), and a
    # one-element circuit-hyperplane would be a loop
    for m in range(1, 5):
        assert build_sparse_paving(1, m, []).canonical_key() == build_uniform(1, m).canonical_key()
    with pytest.raises(LoopDetected):
        build_sparse_paving(1, 3, [(0,)])


def test_fano_as_sparse_paving_matches_pg22():
    a = build_sparse_paving(3, 7, FANO_LINES)
    b = build_projective_geometry(2, 2)
    assert a.canonical_key() == b.canonical_key()


def test_from_bases_roundtrip_uniform():
    from itertools import combinations

    bases = list(combinations(range(5), 3))
    m = build_from_bases(5, bases)
    assert m.canonical_key() == build_uniform(3, 5).canonical_key()


def test_from_bases_parallel_elements():
    # rank 2 on 3 elements with 1,2 parallel
    m = build_from_bases(3, [(0, 1), (0, 2)])
    assert m.rank(mask_of([1, 2])) == 1
    assert m.closure(mask_of([1])) == mask_of([1, 2])


def test_from_bases_rejects_exchange_failure():
    with pytest.raises(BasisExchangeViolation):
        build_from_bases(4, [(0, 1), (2, 3)])


def test_from_bases_rejects_loops_and_bad_sizes():
    with pytest.raises(LoopDetected):
        build_from_bases(3, [(0, 1)])
    with pytest.raises(SizeViolation):
        build_from_bases(3, [(0, 1), (0, 1, 2)])
    with pytest.raises(EmptyInput):
        build_from_bases(3, [])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: build_from_bases(3, [(0, 1), (-1, 2)]), id="bases"),
        pytest.param(lambda: build_sparse_paving(3, 6, [(-1, 1, 2)]), id="sparse_paving"),
        pytest.param(
            lambda: build_from_flats(2, [[()], [(-1,), (1,)], [(0, 1)]]), id="flats"
        ),
    ],
)
def test_builders_reject_a_negative_element(build):
    with pytest.raises(SizeViolation, match=r"\[-1\b.*\] leaves the ground set"):
        build()


def test_from_flats_roundtrip():
    u = build_uniform(2, 3)
    levels = [[tuple(set_of(f)) for f in lev] for lev in u.flats_by_rank]
    m = build_from_flats(3, levels)
    assert m.canonical_key() == u.canonical_key()


def test_from_flats_rejects_non_lattice():
    # two rank-1 "flats" sharing an element
    with pytest.raises((NotAFlat, SizeViolation)):
        build_from_flats(3, [[()], [(0, 1), (1, 2)], [(0, 1, 2)]])


def test_from_flats_rejects_stray_flat():
    # {0} sits at rank 2 but covers no rank-1 flat: the closure of {0} is {0, 1}
    levels = [[()], [(0, 1), (2,), (3,)], [(0, 1, 2), (0, 1, 3), (2, 3), (0,)], [(0, 1, 2, 3)]]
    with pytest.raises(NotAFlat, match=r"flat \(0,\) covers no flat"):
        build_from_flats(4, levels)


def test_minor_restriction_contraction():
    f = build_projective_geometry(2, 2)
    line = mask_of([0, 1, 2])
    rest, rmap = f.restriction(line)
    assert rest.m == 3 and rest.rank_total == 2
    assert rmap.parent_elements == (0, 1, 2)
    cont, cmap = f.contraction(line)
    assert cont.m == 4 and cont.rank_total == 1
    assert cmap.parent_elements == (3, 4, 5, 6)


def test_contraction_by_point_of_fano():
    f = build_projective_geometry(2, 2)
    cont, cmap = f.contraction(mask_of([0]))
    # lines through 0 become the rank-1 flats: three doubletons
    sizes = sorted(g.bit_count() for g in cont.flats_by_rank[1])
    assert sizes == [2, 2, 2]
    assert cmap.parent_elements == (1, 2, 3, 4, 5, 6)


def test_minor_rank_collapse():
    u = build_uniform(3, 5)
    with pytest.raises(RankCollapse):
        u.minor_interval(mask_of([0]), mask_of([0]))


def test_delete_element():
    f = build_projective_geometry(2, 2)
    d, dmap = f.delete_element(6)
    assert d.m == 6 and d.rank_total == 3
    assert d.level_sizes() is None  # lines of 3 and of 2 points
    u = build_uniform(2, 2)
    d2, dmap2 = u.delete_element(0)
    assert d2.m == 1 and d2.rank_total == 1
    assert dmap2.rank_dropped
    cases = [
        (f, False),
        (build_boolean(4), True),  # every element is a coloop
        (build_uniform(3, 6), False),
        (seeded_sparse_paving(7, 3, 20240902), False),
    ]
    for m, coloops in cases:
        for e in range(m.m):
            child, cmap = m.delete_element(e)
            kept = tuple(x for x in range(m.m) if x != e)
            assert cmap.parent_elements == kept
            want = {cmap.to_child(g) for level in m.flats_by_rank for g in level}
            assert {g for level in child.flats_by_rank for g in level} == want
            assert cmap.rank_dropped is coloops
            assert child.rank_total == m.rank_total - coloops
            # the parent's rank on the kept elements, by brute force
            rk = [m.rank(s) for s in lift_table(kept)]
            assert child.flats_by_rank == brute_lattice(rk)[0], (m, e)


def test_truncation():
    b = build_boolean(5)
    t = b.truncate(3)  # threefold truncation: rank 5 -> 2
    assert t.rank_total == 2
    assert t.canonical_key() == build_uniform(2, 5).canonical_key()
    assert build_boolean(4).truncate(1).canonical_key() == build_uniform(3, 4).canonical_key()
    with pytest.raises(RankCollapse):
        b.truncate(5)


SMALL_CATALOG = {name: m for name, m in named_catalog().items() if m.m <= 8}


def fresh(m):
    """A new matroid object on the same cover table, with empty memos."""
    return Matroid(m.m, m._cover_step, m.provenance)


def minor_calls(m):
    """(method name, args) of every minor of m: each interval of nested flats
    of different rank, as a restriction or contraction too when it is one,
    and each single-element deletion."""
    flats = [f for level in m.flats_by_rank for f in level]
    calls = []
    for lo, hi in product(flats, flats):
        if lo & hi == lo and m.rank_of_flat(lo) < m.rank_of_flat(hi):
            calls.append(("minor_interval", (lo, hi)))
            if lo == 0:
                calls.append(("restriction", (hi,)))
            if hi == m.full_mask:
                calls.append(("contraction", (lo,)))
    if m.m > 1:
        calls += [("delete_element", (e,)) for e in range(m.m)]
    return calls


def assert_same_minor(got, want):
    (child, cmap), (other, omap) = got, want
    assert child._cover_step == other._cover_step
    assert child.flats_by_rank == other.flats_by_rank
    assert child.provenance == other.provenance
    assert cmap == omap


@pytest.mark.parametrize("name", sorted(SMALL_CATALOG))
def test_minors_are_memoised_and_shared(name):
    m = fresh(SMALL_CATALOG[name])
    calls = minor_calls(m)
    first = [getattr(m, method)(*args) for method, args in calls]
    for (method, args), got in zip(calls, first):
        again = getattr(m, method)(*args)
        assert again[0] is got[0] and again[1] == got[1], (method, args)
        assert_same_minor(got, getattr(fresh(m), method)(*args))
    by_lattice = {}
    for child, _ in first:
        kept = by_lattice.setdefault((child.provenance, child.canonical_key()), child)
        assert kept is child  # one child per distinct lattice
    interval = {
        args: got[0] for (method, args), got in zip(calls, first) if method == "minor_interval"
    }
    for (method, args), (child, _) in zip(calls, first):
        if method == "restriction":
            assert child is interval[0, args[0]]
        elif method == "contraction":
            assert child is interval[args[0], m.full_mask]


# -- the cover table's form -----------------------------------------------------
#
# Every producer writes one tuple per flat, indexed by element: row[x] is the
# closure of f and x. The reference below finds it by a scan of the levels,
# never by a closure walk.


def assert_rows_by_scan(m):
    """Every row is a tuple of length m whose entry x is the first flat in
    level order that contains f and x, which is the smallest such flat."""
    flats = [f for level in m.flats_by_rank for f in level]
    assert sorted(m._cover_step) == sorted(flats)
    for f, row in m._cover_step.items():
        assert type(row) is tuple and len(row) == m.m, (m, f)
        for x, g in enumerate(row):
            want = f | 1 << x
            assert g == next(h for h in flats if h & want == want), (m, f, x)


def distinct_children(m, methods):
    """The distinct children of every minor of m made by the given methods."""
    children = {}
    for method, args in minor_calls(m):
        if method in methods:
            child = getattr(m, method)(*args)[0]
            children[id(child)] = child
    return list(children.values())


@pytest.mark.parametrize("name", sorted(SMALL_CATALOG))
def test_cover_rows_match_a_scan_of_the_levels(name):
    m = fresh(SMALL_CATALOG[name])
    assert_rows_by_scan(m)
    for child in distinct_children(m, ("minor_interval", "delete_element")):
        assert_rows_by_scan(child)
    for s in range(1, m.rank_total):
        assert_rows_by_scan(m.truncate(s))


ONE_INT_INPUTS = {
    **SMALL_CATALOG,
    "pg23": build_projective_geometry(2, 3),
    "pg32": build_projective_geometry(3, 2),
    "u4_10": build_uniform(4, 10),
    "sp84": seeded_sparse_paving(8, 4, 20240901, 3),
    "sp10": build_sparse_paving(4, 10, seeded_circuit_hyperplanes(10, 4, 20241018)),
}


@pytest.mark.parametrize("name", sorted(ONE_INT_INPUTS))
def test_minor_rows_share_one_int_per_flat(name):
    # masks past 8 elements lie outside CPython's cache of small ints, so only
    # there does a second int object of one flat show as a second id
    m = fresh(ONE_INT_INPUTS[name])
    for child in distinct_children(m, ("minor_interval", "delete_element")):
        ids = {id(g) for row in child._cover_step.values() for g in row}
        assert len(ids) == sum(map(len, child.flats_by_rank[1:])), child


@pytest.mark.parametrize("name", sorted(SMALL_CATALOG))
def test_truncation_shares_the_parent_rows(name):
    m = SMALL_CATALOG[name]
    for s in range(1, m.rank_total):
        t = m.truncate(s)
        for level in m.flats_by_rank[: t.rank_total - 1]:
            for f in level:
                assert t._cover_step[f] is m._cover_step[f], (s, f)


def test_rows_that_are_not_element_tuples_are_rejected():
    m = build_projective_geometry(2, 2)
    as_dicts = {
        f: {x: g for x, g in enumerate(row) if g != f} for f, row in m._cover_step.items()
    }
    with pytest.raises(InternalError, match="not a tuple indexed by element"):
        Matroid(m.m, as_dicts)
    short = {f: row[:-1] for f, row in m._cover_step.items()}
    with pytest.raises(InternalError, match="not a tuple indexed by element"):
        Matroid(m.m, short)


def bad_minor_calls():
    """(matroid, method name, args) that must raise, with a minor of each
    matroid asked first in the warm case."""
    fano = build_projective_geometry(2, 2)
    line, other_line = mask_of(FANO_LINES[0]), mask_of(FANO_LINES[1])
    one = build_boolean(1)
    return [
        (fano, "minor_interval", (mask_of([0, 1]), fano.full_mask)),  # lower not a flat
        (fano, "minor_interval", (0, mask_of([0, 1]))),  # upper not a flat
        (fano, "minor_interval", (mask_of([1]), other_line)),  # not nested
        (fano, "minor_interval", (line, other_line)),  # not nested, same rank
        (fano, "minor_interval", (line, line)),  # rank 0
        (fano, "minor_interval", (fano.full_mask, fano.full_mask)),
        (fano, "restriction", (mask_of([0, 1]),)),
        (fano, "restriction", (0,)),
        (fano, "contraction", (mask_of([3, 5]),)),
        (fano, "contraction", (fano.full_mask,)),
        (fano, "delete_element", (7,)),
        (fano, "delete_element", (-1,)),
        (one, "delete_element", (0,)),
        (one, "delete_element", (1,)),
    ]


def raised(m, method, args):
    with pytest.raises(Exception) as info:
        getattr(m, method)(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", range(len(bad_minor_calls())))
def test_minor_errors_on_a_warm_matroid(case):
    m, method, args = bad_minor_calls()[case]
    cold = raised(fresh(m), method, args)
    assert cold[0] in (NotAFlat, RankCollapse, RankOutOfRange, EmptyInput)
    for warm_method, warm_args in minor_calls(m) or [("restriction", (m.full_mask,))]:
        getattr(m, warm_method)(*warm_args)
    assert m._minors
    assert raised(m, method, args) == cold


def test_corank_nullity_counts():
    u = build_uniform(2, 3)
    counts = u.corank_nullity_counts()
    # 8 subsets: rank 0 (1), rank 1 (3), rank 2 (3 pairs + 1 triple)
    assert counts[(2, 0)] == 1
    assert counts[(1, 0)] == 3
    assert counts[(0, 0)] == 3
    assert counts[(0, 1)] == 1


def _seeded_sparse_paving():
    """The seeded sparse paving matroids of the test generators, by name."""
    return [
        ("sp48", build_sparse_paving(4, 8, seeded_circuit_hyperplanes(8, 4, 20241018))),
        ("sp73", seeded_sparse_paving(7, 3, 20240902)),
        ("sp84", seeded_sparse_paving(8, 4, 20240901, 3)),
        *((f"random{seed}", random_sparse_paving(seed)) for seed in SPARSE_PAVING_SEEDS),
    ]


def _count_inputs():
    named = [*named_catalog().items(), *_seeded_sparse_paving(), ("u7_14", build_uniform(7, 14))]
    return [pytest.param(m, id=name) for name, m in named]


@pytest.mark.parametrize("m", _count_inputs())
def test_corank_nullity_counts_match_every_subset(m):
    assert m.corank_nullity_counts() == reference_counts(m)


def test_coloop_detection():
    m = build_from_bases(3, [(0, 1), (0, 2)])
    assert m.is_coloop(0)
    assert not m.is_coloop(1)


def test_bits_helpers():
    assert list(bits_of(0b1011)) == [0, 1, 3]
    assert mask_of([2, 0]) == 0b101
    assert set_of(0b110) == (1, 2)


def test_flats_strictly_between():
    f = build_projective_geometry(2, 2)
    between = f.flats_strictly_between(0, f.full_mask)
    assert len(between) == 7 + 7
    between_pt = f.flats_strictly_between(mask_of([0]), f.full_mask)
    assert len(between_pt) == 3  # lines through the point


def assert_intervals_by_scan(m, intervals):
    """Each public interval query equals the scan."""
    for lo, hi in intervals:
        assert m.flats_strictly_between(lo, hi) == flats_between_scan(m, lo, hi), (m, lo, hi)


def every_pair_of_flats(m):
    flats = [f for level in m.flats_by_rank for f in level]
    return list(product(flats, flats))


@pytest.mark.parametrize(
    "m",
    [pytest.param(m, id=name) for name, m in [*named_catalog().items(), *_seeded_sparse_paving()]],
)
def test_interval_index_matches_the_scan(m):
    # every pair of flats, comparable or not, on a matroid with an empty cache;
    # each minor and truncation builds an index of its own
    m = fresh(m)
    assert_intervals_by_scan(m, every_pair_of_flats(m))
    if m.m <= 8:  # the size of SMALL_CATALOG
        children = distinct_children(m, ("minor_interval", "delete_element"))
        for child in children + [m.truncate(s) for s in range(1, m.rank_total)]:
            assert_intervals_by_scan(child, every_pair_of_flats(child))


def proper_flat_intervals(m):
    return [(lo, hi) for f in m.proper_flats() for lo, hi in ((0, f), (f, m.full_mask))]


def test_interval_index_matches_the_scan_on_u7_14():
    m = build_uniform(7, 14)
    assert_intervals_by_scan(m, proper_flat_intervals(m))


def test_interval_index_matches_the_scan_on_pg27():
    m = build_projective_geometry(2, 7)
    assert_intervals_by_scan(m, proper_flat_intervals(m))


def test_interval_query_rejects_a_set_that_is_not_a_flat():
    m = build_uniform(3, 5)
    with pytest.raises(NotAFlat, match=r"\(0, 1, 2\) is not a flat"):
        m.flats_strictly_between(0b111, m.full_mask)
    with pytest.raises(NotAFlat, match=r"\(0, 1, 2\) is not a flat"):
        m.flats_strictly_between(0, 0b111)
    # no rank lies strictly between, but an end still has to be a flat
    for lo, hi in ((0b111, 0b111), (0b11, 0b111), (0b111, m.full_mask)):
        with pytest.raises(NotAFlat, match=r"\(0, 1, 2\) is not a flat"):
            m.flats_strictly_between(lo, hi)


@pytest.mark.parametrize("name", sorted(named_catalog()))
def test_an_empty_rank_window_reads_no_bitset(name):
    """With no rank strictly between lo and hi (lo == hi, or hi covers lo),
    an interval read answers () before it touches a bitset."""
    m = fresh(named_catalog()[name])
    flats, _, _, first, rank, full = m._lattice_index()
    blind = (flats, None, None, first, rank, full)  # a read of has or lacks raises
    for f in flats:
        assert _read_between(blind, f, f) == ()
        for g in set(m._cover_step[f]) - {f}:  # the covers of f
            assert _read_between(blind, f, g) == ()
            assert m.flats_strictly_between(f, g) == ()


# -- the lattice against brute force over a rank function ----------------------
#
# Flats and closures below come from a table of the rank of every subset,
# filled from each constructor's own formula, never from the package's
# closure walks; a minor's table is read off its parent's.


def uniform_rank(r):
    return lambda s: min(s.bit_count(), r)


def sparse_paving_rank(r, circuit_hyperplanes):
    chs = {mask_of(c) for c in circuit_hyperplanes}
    return lambda s: min(s.bit_count(), r) - (s in chs)


def gf_rank(vectors, q):
    """Rank over the prime field of order q: one reduced row per pivot."""
    pivots = {}
    for v in vectors:
        v = list(v)
        for i in range(len(v)):
            a = v[i]
            if a and i in pivots:
                v = [(x - a * y) % q for x, y in zip(v, pivots[i])]
            elif a:
                inv = pow(a, q - 2, q)
                pivots[i] = [x * inv % q for x in v]
                break
    return len(pivots)


def pg_rank(r, q):
    # points in lexicographic order, first nonzero coordinate 1
    points = [
        v for v in product(range(q), repeat=r + 1) if any(v) and next(filter(None, v)) == 1
    ]
    return lambda s: gf_rank([points[i] for i in bits_of(s)], q)


@pytest.mark.parametrize("r,q", [(2, 5), (2, 7), (3, 3)])
def test_pg_covers_from_spans_match_the_rank_oracle(r, q):
    want = _from_rank_oracle((q ** (r + 1) - 1) // (q - 1), pg_rank(r, q), "pg")
    assert build_projective_geometry(r, q)._cover_step == want._cover_step


def gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("r,q", [(5, 2), (3, 5), (2, 11)])
def test_large_pg_levels_are_subspace_counts(r, q):
    m = build_projective_geometry(r, q)
    want = [gaussian_binomial(r + 1, k, q) for k in range(r + 2)]
    assert [len(level) for level in m.flats_by_rank] == want
    for k, level in enumerate(m.flats_by_rank):
        # a rank-k flat is the point set of a k-dimensional subspace, so
        # every line has q + 1 points
        assert {f.bit_count() for f in level} == {(q**k - 1) // (q - 1)}, k


CATALOG_RANKS = {
    **{f"b{k}": int.bit_count for k in range(1, 7)},
    **{
        f"u{r}{n}": uniform_rank(r)
        for r, n in [(2, 4), (2, 5), (2, 7), (3, 5), (3, 6), (4, 6), (4, 7), (5, 8)]
    },
    "fano": pg_rank(2, 2),
    "pg23": pg_rank(2, 3),
    "pg32": pg_rank(3, 2),
    "sp361": sparse_paving_rank(3, [(0, 1, 2)]),
    "sp362": sparse_paving_rank(3, [(0, 1, 2), (3, 4, 5)]),
}
COLOOP_BASES = [(0, 1, 3), (0, 2, 3), (0, 1, 4), (0, 2, 4), (0, 3, 4)]  # 0 a coloop


def brute_lattice(rk):
    """(flats by rank, closure of every subset) from a rank table."""
    m = (len(rk) - 1).bit_length()
    closure = []
    for s, r in enumerate(rk):
        closure.append(
            s | sum(1 << x for x in range(m) if not s >> x & 1 and rk[s | 1 << x] == r)
        )
    levels = [[] for _ in range(rk[-1] + 1)]
    for s, c in enumerate(closure):
        if c == s:
            levels[rk[s]].append(s)
    return tuple(map(tuple, levels)), closure


def lift_table(elements):
    """lift[s] is the parent mask of child mask s over the given elements."""
    lift = [0] * (1 << len(elements))
    for s in range(1, len(lift)):
        low = s & -s
        lift[s] = lift[s ^ low] | 1 << elements[low.bit_length() - 1]
    return lift


def minors_with_ranks(m, rk):
    """Every deletion, point contraction, hyperplane restriction and
    truncation of m, each with its rank table read off rk."""
    flats = brute_lattice(rk)[0]
    if m.m > 1:
        for e in range(m.m):
            kept = [x for x in range(m.m) if x != e]
            yield m.delete_element(e)[0], [rk[s] for s in lift_table(kept)]
    if m.rank_total > 1:
        for p in flats[1]:
            kept = set_of(m.full_mask & ~p)
            yield m.contraction(p)[0], [rk[s | p] - rk[p] for s in lift_table(kept)]
        for h in flats[-2]:
            yield m.restriction(h)[0], [rk[s] for s in lift_table(set_of(h))]
    for s in range(1, m.rank_total):
        yield m.truncate(s), [min(r, m.rank_total - s) for r in rk]


def assert_lattice_matches_ranks(m, rk):
    levels, closure = brute_lattice(rk)
    assert m.flats_by_rank == levels, m
    assert [m.closure(s) for s in range(len(rk))] == closure, m


def _lattice_inputs():
    out = [
        pytest.param(m, CATALOG_RANKS[name], id=name)
        for name, m in named_catalog().items()
    ]
    chs = seeded_circuit_hyperplanes(8, 4, 20241018)
    out.append(
        pytest.param(build_sparse_paving(4, 8, chs), sparse_paving_rank(4, chs), id="sp48")
    )
    bases = [mask_of(b) for b in COLOOP_BASES]
    out.append(
        pytest.param(
            build_from_bases(5, COLOOP_BASES),
            lambda s: max((s & b).bit_count() for b in bases),
            id="coloop_bases",
        )
    )
    return out


def test_catalog_has_rank_formulas():
    assert set(CATALOG_RANKS) == set(named_catalog())


@pytest.mark.parametrize("m,rank_fn", _lattice_inputs())
def test_lattice_matches_brute_force(m, rank_fn):
    rk = [rank_fn(s) for s in range(1 << m.m)]
    assert_lattice_matches_ranks(m, rk)
    for child, child_rk in minors_with_ranks(m, rk):
        assert_lattice_matches_ranks(child, child_rk)
