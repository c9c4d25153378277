"""Construction, rank/closure walks, minors, and input validation."""

import random
from itertools import combinations

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
    LoopDetected,
    NonPrimeQ,
    NotAFlat,
    OverlapViolation,
    RankCollapse,
    RankOutOfRange,
    SizeViolation,
)
from mixeuler.matroid import _from_rank_oracle

FANO_LINES = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5), (2, 3, 6), (1, 4, 6), (0, 5, 6)]


def test_uniform_flat_counts():
    m = build_uniform(3, 5)
    assert [len(level) for level in m.flats_by_rank] == [1, 5, 10, 1]
    assert m.n == 4 and m.r == 2
    assert m.is_size_uniform()


def test_boolean_is_uniform_on_full_rank():
    b = build_boolean(4)
    assert b.rank_total == 4
    assert b.provenance == "boolean"
    assert b.rank(mask_of([0, 1, 2, 3])) == 4


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


def test_from_flats_roundtrip():
    u = build_uniform(2, 3)
    levels = [[tuple(set_of(f)) for f in lev] for lev in u.flats_by_rank]
    m = build_from_flats(3, levels)
    assert m.canonical_key() == u.canonical_key()


def test_from_flats_rejects_non_lattice():
    # two rank-1 "flats" sharing an element
    with pytest.raises((NotAFlat, SizeViolation)):
        build_from_flats(3, [[()], [(0, 1), (1, 2)], [(0, 1, 2)]])


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


def seeded_sparse_paving(m, rank, seed):
    # greedy circuit-hyperplanes from a seeded shuffle of the rank-subsets
    rng = random.Random(seed)
    candidates = list(combinations(range(m), rank))
    rng.shuffle(candidates)
    chosen = []
    for c in candidates:
        if all(len(set(c) & set(h)) <= rank - 2 for h in chosen):
            chosen.append(c)
    return build_sparse_paving(rank, m, chosen)


def test_delete_element():
    f = build_projective_geometry(2, 2)
    d, dmap = f.delete_element(6)
    assert d.m == 6 and d.rank_total == 3
    assert not d.is_size_uniform()
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
            # the rank-oracle construction on the parent's rank is the reference
            ref = _from_rank_oracle(
                len(kept), lambda mask: m.rank(cmap.to_parent(mask)), "deletion"
            )
            assert child.flats_by_rank == ref.flats_by_rank, (m, e)


def test_truncation():
    b = build_boolean(5)
    t = b.truncate(3)  # threefold truncation: rank 5 -> 2
    assert t.rank_total == 2
    assert t.canonical_key() == build_uniform(2, 5).canonical_key()
    assert build_boolean(4).truncate(1).canonical_key() == build_uniform(3, 4).canonical_key()
    with pytest.raises(RankCollapse):
        b.truncate(5)


def test_closure_table_and_corank_nullity():
    u = build_uniform(2, 3)
    tab = u.closure_table()
    assert tab[mask_of([0])] == mask_of([0])
    assert tab[mask_of([0, 1])] == u.full_mask
    counts = u.corank_nullity_counts()
    # 8 subsets: rank 0 (1), rank 1 (3), rank 2 (3 pairs + 1 triple)
    assert counts[(2, 0)] == 1
    assert counts[(1, 0)] == 3
    assert counts[(0, 0)] == 3
    assert counts[(0, 1)] == 1


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
