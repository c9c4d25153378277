"""Flat-filled tree enumeration against the flag expansion."""

import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import permutations

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
    CONVENTIONS,
    composition_to_indices,
    compositions,
    expand_gamma_product,
    gamma_product_degree,
    weight_scale,
)
from mixeuler.trees import (
    PostnikovTree,
    _insertion_neighbors,
    aggregate_by_flag,
    enumerate_trees,
    tree_weight,
)

from reference import expand_unpruned, trees_unpruned
from test_matroid import fresh


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


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_pruned_enumeration_matches_unpruned_on_u58(convention):
    # crosscheck's tree matroid: a seeded sample of its 210 compositions,
    # each as the sorted product and in a shuffled order
    m = build_uniform(5, 8)
    rng = random.Random(f"u58-{convention}")
    for c in rng.sample(list(compositions(m.r, m.n)), 12):
        vs = composition_to_indices(c)
        for order in (vs, tuple(rng.sample(vs, len(vs)))):
            got = Counter(enumerate_trees(m, order, convention))
            assert got == Counter(trees_unpruned(m, order, convention)), order


def unpruned_terms(m, vs, convention):
    """expand_gamma_product(m, vs, convention).terms as the reference grows them."""
    scale = weight_scale(m.m, convention)
    terms = expand_unpruned(m, vs, convention, scale)
    if convention == "mult":
        return {flag: Fraction(w, scale ** len(vs)) for flag, w in terms.items()}
    return terms


@pytest.mark.parametrize("name", sorted(SMALL))
def test_shared_matroid_matches_fresh_unpruned(name):
    # one matroid keeps its gap weights across every call, in any order of
    # products, lengths, conventions and oracles; the reference runs on a
    # matroid of its own
    shared, oracle = fresh(SMALL[name]), fresh(SMALL[name])
    rng = random.Random(f"shared-{name}")
    full = [composition_to_indices(c) for c in compositions(shared.r, shared.n)]
    shorter = [
        tuple(rng.randint(1, shared.n) for _ in range(rng.randrange(shared.r)))
        for _ in range(12 if shared.r else 0)
    ]
    calls = [
        (kind, vs, convention)
        for vs in full + [vs[::-1] for vs in full] + shorter
        for kind in ("expand", "trees")
        for convention in CONVENTIONS
    ]
    rng.shuffle(calls)
    for kind, vs, convention in calls[:80]:
        if kind == "expand":
            got = expand_gamma_product(shared, vs, convention).terms
            assert got == unpruned_terms(oracle, vs, convention), (vs, convention)
        else:
            got = Counter(enumerate_trees(shared, vs, convention))
            assert got == Counter(trees_unpruned(oracle, vs, convention)), (vs, convention)
    assert bool(shared._gap_weights) == bool(shared.r)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_a_gap_and_class_met_at_two_steps_of_a_shorter_product(convention):
    # on b6, class 2 reaches the gap (empty set, a 3-set H) at step 1 (3 puts
    # H in first) with another 2 still to come, which kills every 2-set
    # there, and at step 2 (3 puts a 4-set in first and 2 then puts H below
    # it) with nothing to come; the second must not read the first's filter
    m = fresh(SMALL["b6"])
    vs = (3, 2, 2)
    assert Counter(enumerate_trees(m, vs, convention)) == Counter(trees_unpruned(m, vs, convention))
    assert expand_gamma_product(m, vs, convention).terms == unpruned_terms(m, vs, convention)
    assert any(len(flag) == 3 and flag[0].bit_count() == 2 for flag in unpruned_terms(m, vs, convention))


def test_one_pass_neighbors_match_the_scan():
    # the neighbors read the labels alone, and every labeling of at most six
    # vertices covers every tree of the catalog matroids with at most seven
    # elements (r <= 5)
    labelings = {p for k in range(7) for p in permutations(range(1, k + 1))}
    for m in SMALL.values():
        rng = random.Random(f"neighbors-{m.m}-{m.rank_total}")
        for c in compositions(m.r, m.n):
            vs = list(composition_to_indices(c))
            for order in (vs, vs[::-1], rng.sample(vs, len(vs))):
                assert {tree.labels for tree, _ in enumerate_trees(m, order)} <= labelings
    for labels in labelings:
        tree = PostnikovTree(labels, (0,) * len(labels), (), ())
        want = [
            (tree.position_of_label(t), *tree.neighbors_at_insertion(t))
            for t in range(1, len(labels) + 1)
        ]
        assert list(_insertion_neighbors(labels)) == want, labels


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


def test_tree_weight_rejects_a_vector_of_the_wrong_length():
    m = build_uniform(3, 5)
    tree, w = enumerate_trees(m, (1, 2))[0]
    assert tree_weight(m, tree, (1, 2)) == w
    for v in [(1,), (1, 2, 3)]:
        with pytest.raises(VOutOfRange, match=f"v has {len(v)} classes but the tree has 2 vertices"):
            tree_weight(m, tree, v)


def test_enumeration_leaves_no_cycle():
    # the enumeration grows its trees in loops and keeps its label orders and
    # weights in dicts local to the call, with no closure, so the matroid
    # dies at del without the cycle collector
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
