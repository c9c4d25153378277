"""Every per-matroid store is declared once, in the table on Matroid: each
query kind of the benchmark's workloads leaves only declared stores on the
matroids it reaches, each within its declared bound, and every one of those
matroids dies without the cycle collector."""

import gc
import random
import weakref

import pytest

from mixeuler import (
    NotPMD,
    aggregate_by_flag,
    build_boolean,
    build_from_bases,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
    characteristic_data,
    classify_support,
    cv_via_tutte_convolution,
    deletion_contraction_degree,
    enumerate_trees,
    eulerian_recursion_degree,
    expand_gamma_product,
    gamma_degree_via_localization,
    lopsided_degree,
    mixed_eulerian_degree,
    pmd_profile,
    pvol,
    tutte_polynomial,
)
from mixeuler.expansion import CONVENTIONS, composition_to_indices, compositions
from mixeuler.matroid import Matroid, _Store

from reference import flag_degree

STORES = {name: store for name, store in vars(Matroid).items() if isinstance(store, _Store)}
CORE = {"m", "full_mask", "rank_total", "flats_by_rank", "provenance", "_rank_of_flat", "_cover_step"}

MATROIDS = {
    "boolean:4": lambda: build_boolean(4),
    "uniform:3,6": lambda: build_uniform(3, 6),
    "pg:2,2": lambda: build_projective_geometry(2, 2),
    "sparse:3,6;012|345": lambda: build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
    "sparse:4,7;0123|3456": lambda: build_sparse_paving(4, 7, [(0, 1, 2, 3), (3, 4, 5, 6)]),
    # U(3,4) with element 4 parallel to 3: not simple, Boolean intervals in a flat view
    "U(3,4) with a parallel element": lambda: build_from_bases(
        5, [b for b in ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 4))]
    ),
}


def table(m):
    """Every composition under both conventions, through the DP and the
    flag oracle."""
    for c in compositions(m.r, m.n):
        for convention in CONVENTIONS:
            mixed_eulerian_degree(m, c, convention)
            flag_degree(m, composition_to_indices(c), convention)


def pipelines(m):
    """The pipelines suite on every composition: localization, eulerian,
    delcon and convolution beside the DP's degree, under both conventions."""
    for c in compositions(m.r, m.n):
        vs = composition_to_indices(c)
        gamma_degree_via_localization(m, c)
        if not vs:
            continue
        support = classify_support(m, vs)
        repeat = next((j for j, x in enumerate(vs, 1) if vs.count(x) >= 2), None)
        for convention in CONVENTIONS:
            if support.flatly_contiguous and repeat:
                eulerian_recursion_degree(m, vs, repeat, convention)
            if support.contiguous:
                if m.rank_total >= 3:
                    deletion_contraction_degree(m, vs, 0, 0, convention)
                cv_via_tutte_convolution(m, vs, convention)


def trees(m):
    """Tree enumeration and the flag expansion on a seeded sample of products."""
    rng = random.Random(f"stores-{m!r}")
    cs = list(compositions(m.r, m.n))
    for c in rng.sample(cs, min(8, len(cs))):
        vs = list(composition_to_indices(c))
        rng.shuffle(vs)
        for convention in CONVENTIONS:
            aggregate_by_flag(enumerate_trees(m, vs, convention))
            expand_gamma_product(m, vs, convention)


def invariants(m):
    """charpoly, Tutte, pmd_profile, lopsided, pvol, the three minors and the
    walk over both intervals of every proper flat."""
    characteristic_data(m)
    tutte_polynomial(m)
    try:
        pmd_profile(m)
        lopsided_degree(m, (m.r,) + (0,) * (m.r - 1))
    except NotPMD:
        pass
    for convention in CONVENTIONS:
        pvol(m, convention)
    m.delete_element(0)
    m.contraction(next(f for f in m.flats_by_rank[1] if f & 1))
    if m.rank_total > 1:
        m.truncate(1)
    for f in m.proper_flats():
        m.flats_strictly_between(0, f)
        m.flats_strictly_between(f, m.full_mask)


QUERIES = {"table": table, "pipelines": pipelines, "trees": trees, "invariants": invariants}


def reached(m):
    """m and every matroid its stores lead to: minors, theirs, and the
    Boolean matroid of the convolution store."""
    found, todo, seen = [m], [m], set()
    while todo:
        stack = list(vars(todo.pop()).values())
        while stack:
            x = stack.pop()
            if id(x) in seen:
                continue
            seen.add(id(x))
            if isinstance(x, Matroid):
                found.append(x)
                todo.append(x)
            elif isinstance(x, dict):
                stack += x.keys()
                stack += x.values()
            elif isinstance(x, (tuple, list)):
                stack += x
    return found


def test_every_matroid_a_build_or_minor_makes_holds_no_store():
    for make in MATROIDS.values():
        m = make()
        assert set(vars(m)) == CORE
        for child in (m.delete_element(0)[0], m.contraction(m.flats_by_rank[1][0])[0], m.truncate(1)):
            assert set(vars(child)) == CORE
        lo, hi = m.flats_by_rank[1][0], m.full_mask
        assert set(vars(m.minor_interval(lo, hi)[0])) == CORE
        assert set(vars(m)) == CORE | {"_minors", "_interval_index"}


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("name", sorted(MATROIDS))
def test_stores_are_declared_bounded_and_die_with_the_matroid(name, query):
    run = QUERIES[query]
    run(MATROIDS[name]())  # warm-up: imports and one-time checks
    gc.collect()
    gc.disable()
    try:
        m = MATROIDS[name]()
        run(m)
        matroids = reached(m)
        assert len({id(x) for x in matroids}) == len(matroids)
        for x in matroids:
            added = set(vars(x)) - CORE
            assert added <= set(STORES), (x, added - set(STORES))
            for store in map(STORES.__getitem__, added):
                if store.bound is not None:  # else one value, made once
                    entries = store.entries(vars(x)[store.name])
                    assert entries <= store.bound(x), (x, store.name, entries, store.bound(x))
        assert set(vars(m)) > CORE  # the queries reached the matroid
        alive = [weakref.ref(x) for x in matroids]
        del m, matroids, x
        assert not [ref for ref in alive if ref() is not None]
    finally:
        gc.enable()


def test_every_declared_store_is_filled_by_some_query():
    filled = set()
    for make in MATROIDS.values():
        m = make()
        for run in QUERIES.values():
            run(m)
        for x in reached(m):
            filled |= {name for name, value in vars(x).items() if name in STORES and value}
    assert filled == set(STORES)


def test_the_table_names_each_store_once_with_its_own_name():
    assert len(STORES) == 12
    for name, store in STORES.items():
        assert store.name == name and store.owner and store.holds
        assert Matroid.__dict__[name] is store
    with pytest.raises(AttributeError):
        build_uniform(2, 3)._not_a_store
