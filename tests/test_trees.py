"""Flat-filled tree enumeration against the flag expansion."""

import gc
import random
import weakref
from collections import Counter

import pytest

from mixeuler import (
    build_boolean,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
    mask_of,
)
from mixeuler.catalog import named_catalog
from mixeuler.errors import VOutOfRange
from mixeuler.expansion import (
    composition_to_indices,
    compositions,
    expand_gamma_product,
    gamma_product_degree,
)
from mixeuler.trees import PostnikovTree, aggregate_by_flag, enumerate_trees, tree_weight

from reference import trees_unpruned


def test_worked_example_figure_tree():
    m = build_uniform(6, 10)
    terms = enumerate_trees(m, (2, 3, 1, 4))
    fig = (3, 1, 4, 2)  # labels in search order for the reference tree shape
    flag_a = (mask_of([5]), mask_of([3, 5]), mask_of([3, 5, 8]), mask_of([1, 2, 3, 5, 8]))
    flag_b = (mask_of([5]), mask_of([0, 5]), mask_of([0, 3, 5, 8]), mask_of([0, 2, 3, 5, 8]))
    [wa] = [w for t, w in terms if t.flats == flag_a and t.labels == fig]
    [wb] = [w for t, w in terms if t.flats == flag_b and t.labels == fig]
    assert wa == 2
    assert wb == 1
    [tree] = [t for t, w in terms if t.flats == flag_a and t.labels == fig]
    assert tree.parent == (0, 1, 1, 2)
    assert tree.side == ("root", "right", "left", "left")


def test_worked_example_size_constraints():
    # compatibility forces |F(pos 1)| = 2 and |F(pos 3)| = 5 on the figure shape
    m = build_uniform(6, 10)
    terms = enumerate_trees(m, (2, 3, 1, 4))
    for t, w in terms:
        if t.labels == (3, 1, 4, 2):
            assert t.flats[1].bit_count() == 2
            assert t.flats[3].bit_count() == 5


def test_enumerated_trees_satisfy_invariants():
    m = build_uniform(3, 5)
    v = (1, 2)
    for t, w in enumerate_trees(m, v):
        assert t.is_increasing()
        assert t.is_compatible(m, v)
        assert all(
            t.flats[i].bit_count() < t.flats[i + 1].bit_count() for i in range(t.size - 1)
        )
        assert w == tree_weight(m, t, v)


@pytest.mark.parametrize("convention", ["oi", "mult"])
def test_aggregation_matches_expansion(convention):
    cases = [
        (build_uniform(3, 5), (1, 2)),
        (build_uniform(3, 5), (2, 2)),
        (build_projective_geometry(2, 2), (1, 3)),
        (build_projective_geometry(2, 2), (3, 3)),
        (build_boolean(4), (2, 1, 3)),
        (build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]), (1, 2)),
        (build_uniform(2, 4), (1,)),  # shorter than top degree
    ]
    for m, v in cases:
        agg = aggregate_by_flag(enumerate_trees(m, v, convention))
        exp = expand_gamma_product(m, v, convention).terms
        assert agg == exp


def test_aggregation_matches_expansion_random():
    rng = random.Random(20240819)
    pool = [
        build_uniform(2, 5),
        build_uniform(3, 6),
        build_boolean(5),
        build_projective_geometry(2, 2),
        build_sparse_paving(3, 6, [(0, 1, 2), (2, 3, 4)]),
    ]
    for _ in range(25):
        m = pool[rng.randrange(len(pool))]
        k = rng.randint(1, m.r)
        v = tuple(rng.randint(1, m.n) for _ in range(k))
        conv = ("oi", "mult")[rng.randrange(2)]
        agg = aggregate_by_flag(enumerate_trees(m, v, conv))
        exp = expand_gamma_product(m, v, conv).terms
        assert agg == exp, (m.provenance, v, conv)


SMALL = {name: m for name, m in named_catalog().items() if m.m <= 7}


@pytest.mark.parametrize("convention", ["oi", "mult"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_pruned_enumeration_matches_unpruned(name, convention):
    m = SMALL[name]
    for c in compositions(m.r, m.n):
        vs = composition_to_indices(c)
        got = Counter(enumerate_trees(m, vs, convention))
        assert got == Counter(trees_unpruned(m, vs, convention)), c


def test_all_ones_gives_left_path():
    b = build_boolean(5)
    terms = enumerate_trees(b, (1, 1, 1))
    assert terms
    for t, w in terms:
        assert t.parent == (0, 1, 2)
        assert t.side == ("root", "left", "left")
        # chain is read bottom-up: labels reversed along search order
        assert t.labels == (3, 2, 1)


def test_degree_totals_match():
    m = build_uniform(3, 5)
    tot = sum(w for t, w in enumerate_trees(m, (2, 2)))
    assert tot == gamma_product_degree(m, (2, 2))


def test_enumerate_validates():
    m = build_uniform(3, 5)
    with pytest.raises(VOutOfRange):
        enumerate_trees(m, (0, 1))
    with pytest.raises(VOutOfRange):
        enumerate_trees(m, (1, 1, 1))
    with pytest.raises(VOutOfRange):
        enumerate_trees(m, (1,), "nope")


def test_compatibility_rejects_wrong_vector():
    m = build_uniform(3, 5)
    [t0] = [t for t, w in enumerate_trees(m, (1, 2)) if t.flats[0] == mask_of([4])][:1]
    assert t0.is_compatible(m, (1, 2))
    # second vertex sits right of a size-1 flat, so its index must exceed 1
    assert not t0.is_compatible(m, (1, 1))
    assert not t0.is_compatible(m, (1,))


def test_enumeration_leaves_no_cycle():
    # the enumeration recurses through a module-level function, so the
    # matroid dies at del without the cycle collector
    gc.collect()
    gc.disable()
    try:
        m = build_projective_geometry(2, 2)
        terms = enumerate_trees(m, (1, 3))
        assert sum(w for _, w in terms) == 24  # deg(gamma_1 gamma_3) on the Fano plane
        alive = weakref.ref(m)
        del m, terms
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
