"""The auto engine's memo, kept on its matroid and shared by every degree
query, and the tables the flag oracle and the relations keep beside it."""

import gc
import random
import weakref
from itertools import combinations, cycle, islice

import pytest

from mixeuler import (
    build_from_bases,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
)
from mixeuler.catalog import named_catalog
from mixeuler.expansion import (
    CONVENTIONS,
    composition_to_indices,
    compositions,
    expand_gamma_product,
    mixed_eulerian_degree,
    pvol,
)
from mixeuler.matroid import Matroid
from mixeuler.recursion import (
    classify_support,
    deletion_contraction_degree,
    eulerian_recursion_degree,
)
from mixeuler.trees import enumerate_trees

from reference import flats_between_scan
from seeded import seeded_sparse_paving
from test_matroid import fresh
from test_recursion import relation_calls

SMALL = {name: m for name, m in named_catalog().items() if m.m <= 9}


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_warm_memo_matches_flag_and_fresh_matroids(name, convention):
    shared = fresh(SMALL[name])
    cs = list(compositions(shared.r, shared.n))
    random.Random(f"{name}-{convention}").shuffle(cs)
    for c in cs:
        warm = mixed_eulerian_degree(shared, c, convention)
        assert warm == mixed_eulerian_degree(shared, c, convention, "flag"), c
        assert warm == mixed_eulerian_degree(fresh(shared), c, convention), c
    if shared.r:
        # a second pass finds every interval it needs in the memo
        memo = shared._degree_memos[convention][1]
        size = len(memo)
        assert size
        for c in cs:
            mixed_eulerian_degree(shared, c, convention)
        assert len(memo) == size


def test_one_memo_per_convention():
    m = build_projective_geometry(2, 2)
    c = (1, 0, 1, 0, 0, 0)
    assert mixed_eulerian_degree(m, c, "oi") == mixed_eulerian_degree(m, c, "mult")
    assert set(m._degree_memos) == set(CONVENTIONS)
    (oi_view, oi_memo), (mult_view, mult_memo) = (m._degree_memos[k] for k in CONVENTIONS)
    assert oi_view is not mult_view and oi_memo is not mult_memo
    assert oi_memo and mult_memo
    # the flat views of both conventions read the matroid's one interval store
    m = build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)])
    for conv in CONVENTIONS:
        mixed_eulerian_degree(m, (1, 0, 1, 0, 0), conv)
    oi_levels, mult_levels = (m._degree_memos[k][0].levels for k in CONVENTIONS)
    assert oi_levels.args[0] is mult_levels.args[0] is m._levels
    assert m._levels


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
        lambda: seeded_sparse_paving(8, 4, 20241101),
        lambda: build_projective_geometry(3, 2),
        lambda: build_uniform(3, 6),
    ],
    ids=["flat view", "flat view, rank 4", "rank view pg:3,2", "rank view uniform:3,6"],
)
def test_memo_dies_without_the_cycle_collector(make):
    gc.collect()
    gc.disable()
    try:
        m = make()
        for conv in CONVENTIONS:
            for c in compositions(m.r, m.n):
                mixed_eulerian_degree(m, c, conv)
            pvol(m, conv)
            view, memo = m._degree_memos[conv]
            assert memo
            # the flat view answers Boolean intervals on B_R's rank view, with a memo of its own
            assert (view.boolean is not None and bool(view.boolean[1])) == (m.level_sizes() is None)
            # a rank view keeps each gap's weights: at most one entry per pair of ranks and class
            rank_view = view.boolean[0] if view.gaps is None else view
            R = m.rank_total
            assert 0 < len(rank_view.gaps) <= R * (R + 1) // 2 * m.n
        # the flat view fills the matroid's interval store; the rank view needs none
        assert bool(m._levels) == (m.level_sizes() is None)
        m.flats_strictly_between(0, m.full_mask)  # the rank view never builds the index
        assert m._interval_index is not None
        alive = weakref.ref(m)
        del m
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "make",
    [lambda: build_projective_geometry(2, 2), lambda: seeded_sparse_paving(8, 4, 20241101)],
    ids=["pg:2,2", "sparse paving on 8"],
)
def test_oracle_tables_die_without_the_cycle_collector(make):
    def fill(m):
        for conv in CONVENTIONS:
            for c in compositions(m.r, m.n):
                vs = composition_to_indices(c)
                expand_gamma_product(m, vs, conv)
                enumerate_trees(m, vs[::-1], conv)
                support = classify_support(m, vs)
                if support.contiguous:
                    deletion_contraction_degree(m, vs, 0, 0, conv)
                if support.flatly_contiguous:
                    for j in repeats(vs):
                        eulerian_recursion_degree(m, vs, j, conv)

    fill(make())  # warm-up: imports what the oracles use
    gc.collect()
    gc.disable()
    try:
        m = make()
        fill(m)
        assert m._gap_weights
        assert set(m._delcon) == set(CONVENTIONS) and all(m._delcon.values())
        assert m._pivots and all(m._eulerian)
        alive = weakref.ref(m)
        del m
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def repeats(vs):
    """The 1-based positions of the entries of vs that occur more than once."""
    return [j for j, x in enumerate(vs, 1) if vs.count(x) >= 2]


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_projective_geometry(2, 2),
        lambda: seeded_sparse_paving(8, 4, 20241101),
        lambda: build_from_bases(5, [b for b in combinations(range(5), 3) if b[1:] != (3, 4)]),
    ],
    ids=["pg:2,2", "sparse paving on 8", "U(3,4) with a parallel element"],
)
def test_relation_stores_hold_one_entry_per_group_val_and_pivot(make):
    m = make()
    rng = random.Random(f"stores-{m!r}")
    asked, pivoted = set(), set()
    for c in compositions(m.r, m.n):
        vs = composition_to_indices(c)
        support = classify_support(m, vs)
        convention = rng.choice(CONVENTIONS)
        if support.flatly_contiguous:
            for j in repeats(vs):
                eulerian_recursion_degree(m, vs, j, convention)
                asked.add((convention, vs[j - 1]))
        if support.contiguous:
            i = rng.randrange(m.m)
            deletion_contraction_degree(m, vs, 0, i, convention)
            pivoted.add(i)
    groups, sums = m._eulerian
    # one group per distinct (child, shift), the flats partitioned among them
    rank_one, corank_one = m.flats_by_rank[1], m.flats_by_rank[m.r]
    assert set(groups) == {(m.contraction(f)[0], f.bit_count()) for f in rank_one} | {
        (m.restriction(f)[0], 0) for f in corank_one
    }
    assert sorted(f for flats in groups.values() for f in flats) == sorted(rank_one + corank_one)
    assert len(groups) < len(rank_one) + len(corank_one)
    # summed weights for the vals asked alone, each term a group that does not cancel
    assert set(sums) == asked
    assert all((child, shift) in groups and wt for terms in sums.values() for child, shift, wt in terms)
    # one pivot step per element pivoted at; the children pivot at element 0
    assert set(m._pivots) == pivoted
    children = [got for got in m._minors.values() if isinstance(got, Matroid)]
    assert any(child._pivots for child in children)
    assert all(set(child._pivots or ()) <= {0} for child in children)


@pytest.mark.parametrize(
    "engine",
    [
        lambda m: mixed_eulerian_degree(m, (0, 1, 0, 1, 0), "oi"),
        lambda m: expand_gamma_product(m, (2, 4), "mult"),
    ],
    ids=["auto degree", "expand_gamma_product"],
)
def test_interval_memo_is_filled_by_the_engines_alone(engine):
    # sparse paving but no design, so the auto engine walks the flat view
    circuit_hyperplanes = [(0, 1, 2), (3, 4, 5)]
    engine(build_sparse_paving(3, 6, circuit_hyperplanes))  # warm-up: imports
    gc.collect()
    gc.disable()
    try:
        m = build_sparse_paving(3, 6, circuit_hyperplanes)
        engine(m)
        assert m._levels
        for (lo, hi), levels in m._levels.items():
            got = [g for flats, _ in levels for g in flats]
            assert sorted(got) == sorted(flats_between_scan(m, lo, hi))
        alive = weakref.ref(m)
        del m
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
        lambda: seeded_sparse_paving(8, 4, 20241101),
        lambda: build_projective_geometry(2, 2),
    ],
    ids=["two 3-point lines on 6", "sparse paving on 8", "pg:2,2"],
)
def test_pvol_minors_and_interval_queries_store_nothing(make):
    """pvol under both conventions, flats_strictly_between and minor_interval
    leave the matroid's interval store as they found it: empty on a new
    matroid, and as the engines left it once they have filled it."""
    m = make()
    flats = [f for level in m.flats_by_rank for f in level]

    def outside_the_engines():
        for conv in CONVENTIONS:
            pvol(m, conv)
        for lo in flats:
            for hi in flats:
                m.flats_strictly_between(lo, hi)
                if lo & hi == lo and m.rank_of_flat(lo) < m.rank_of_flat(hi):
                    m.minor_interval(lo, hi)

    outside_the_engines()
    assert m._levels == {}
    for c in compositions(m.r, m.n):
        vs = composition_to_indices(c)
        mixed_eulerian_degree(m, c, "oi")
        expand_gamma_product(m, vs, "mult")
    filled = dict(m._levels)
    assert filled
    outside_the_engines()
    assert m._levels == filled


def test_flag_engine_leaves_the_memo_empty():
    m = build_projective_geometry(2, 2)
    for conv in CONVENTIONS:
        for c in compositions(m.r, m.n):
            mixed_eulerian_degree(m, c, conv, "flag")
        pvol(m, conv, "flag")
    assert m._degree_memos == {}


def test_queries_leave_no_garbage():
    # the DP recurses through module-level functions, so no query leaves a
    # reference cycle behind for the collector
    m = build_projective_geometry(3, 2)
    cs = list(islice(cycle(compositions(m.r, m.n)), 200))
    for c in cs:  # warm-up: fills the memo and imports what the queries use
        mixed_eulerian_degree(m, c)
    pvol(m)
    gc.collect()
    gc.disable()
    try:
        for c in cs:
            mixed_eulerian_degree(m, c)
        pvol(m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def run_relations(m):
    """Every relation on every composition in its domain, both conventions."""
    rng = random.Random(f"relations-{m!r}")
    for c in compositions(m.r, m.n):
        vs = composition_to_indices(c)
        for _, relation, args in relation_calls(m, vs, rng) if vs else ():
            for convention in CONVENTIONS:
                relation(m, *args, convention)


@pytest.mark.parametrize(
    "make",
    [lambda: build_projective_geometry(2, 2), lambda: seeded_sparse_paving(8, 4, 20241101)],
    ids=["pg:2,2", "sparse paving on 8"],
)
def test_minor_memo_dies_without_the_cycle_collector(make):
    run_relations(make())  # warm-up: imports what the relations use
    gc.collect()
    gc.disable()
    try:
        m = make()
        run_relations(m)
        children = [got for got in m._minors.values() if isinstance(got, Matroid)]
        assert any(child._degree_memos for child in children)
        assert any(child._interval_index is not None for child in children)
        assert any(child._minors for child in children)  # grandchildren, from delcon
        alive = weakref.ref(m)
        child_alive = [weakref.ref(child) for child in children]
        del m, children
        assert alive() is None
        assert all(ref() is None for ref in child_alive)
        assert gc.collect() == 0
    finally:
        gc.enable()
