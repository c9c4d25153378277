"""Flag expansion, weights, degrees, and the rank view on uniform matroids."""

import gc
import random
import weakref
from fractions import Fraction
from math import comb, factorial

import pytest

from mixeuler import (
    build_boolean,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
    mask_of,
)
from mixeuler import expansion
from mixeuler.catalog import named_catalog
from mixeuler.errors import CompositionMismatch, InputError, RankTooSmall, VOutOfRange
from mixeuler.expansion import (
    _entering,
    check_composition,
    composition_to_indices,
    compositions,
    count_initial_descending_flags,
    expand_gamma_product,
    gamma_product_degree,
    indices_to_composition,
    insertion_weight,
    log_concavity_check,
    mixed_eulerian_degree,
    pvol,
    weight_scale,
)

from reference import (
    expand_unpruned,
    flag_degree,
    flats_between_scan,
    mult_weight,
    oi_weight,
    trees_unpruned,
    viable,
)
from test_interval_dp import flag_loop_pvol
from test_matroid import fresh


def eulerian_number(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if not 0 <= k < n:
        return 0
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))


def test_weight_formulas():
    # inside {0..4}: S = {0,1,2}, T = {2,3,4}
    assert oi_weight(0b00111, 0b11100, 0b11111) == 1 - max(0, 3 + 3 - 5)
    assert mult_weight(3, 2, 5) == 2 - Fraction(6, 5)
    assert mult_weight(2, 4, 5) == 2 - Fraction(8, 5)
    # boundary sizes give zero weight
    assert mult_weight(5, 2, 5) == 0
    assert mult_weight(0, 2, 5) == 0


def test_weight_conventions_differ_termwise_agree_on_degree():
    m = build_uniform(3, 5)
    a = expand_gamma_product(m, (1, 2), "oi")
    b = expand_gamma_product(m, (1, 2), "mult")
    assert a.terms != b.terms
    assert a.total() == b.total() == gamma_product_degree(m, (1, 2))


def test_composition_helpers():
    assert composition_to_indices((2, 0, 1)) == (1, 1, 3)
    assert indices_to_composition((1, 1, 3), 3) == (2, 0, 1)
    assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 0)) == [()]
    with pytest.raises(VOutOfRange):
        indices_to_composition((0,), 3)


def test_gamma1_expansion_lists_flats_avoiding_a_point():
    # under oi the reference set for gamma_1 is the n largest elements, so
    # the weight is 1 exactly on flats avoiding element 0
    m = build_boolean(4)
    ex = expand_gamma_product(m, (1,), "oi")
    got = {flag[0] for flag, w in ex.terms.items() if w}
    want = {f for f in m.proper_flats() if not f & 1}
    assert got == want
    assert all(w == 1 for w in ex.terms.values())


def test_gamma_n_expansion_lists_flats_containing_a_point():
    m = build_boolean(4)
    ex = expand_gamma_product(m, (3,), "oi")
    got = {flag[0] for flag, w in ex.terms.items() if w}
    want = {f for f in m.proper_flats() if (f >> 3) & 1}
    assert got == want


def test_expand_validates_input():
    m = build_uniform(3, 5)
    with pytest.raises(VOutOfRange):
        expand_gamma_product(m, (0,))
    with pytest.raises(VOutOfRange):
        expand_gamma_product(m, (5,))
    with pytest.raises(VOutOfRange):
        expand_gamma_product(m, (1, 1, 1))
    with pytest.raises(VOutOfRange):
        gamma_product_degree(m, (1, 2), convention="nope")
    with pytest.raises(VOutOfRange):
        expand_gamma_product(m, (1, 2), "nope")


def test_weights_refuse_an_unknown_convention():
    with pytest.raises(VOutOfRange):
        insertion_weight(0, 7, 1, 1, "bogus", 1)
    with pytest.raises(VOutOfRange):
        weight_scale(3, "bogus")


def test_degree_liberal_conventions():
    m = build_uniform(3, 5)
    assert gamma_product_degree(m, (0, 2)) == 0
    assert gamma_product_degree(m, (2, 5)) == 0
    assert gamma_product_degree(m, (2,)) == 0
    assert gamma_product_degree(m, (1, 1, 1)) == 0


def test_mixed_eulerian_validates_composition():
    m = build_uniform(3, 5)
    with pytest.raises(CompositionMismatch):
        mixed_eulerian_degree(m, (1, 1))
    with pytest.raises(CompositionMismatch):
        mixed_eulerian_degree(m, (1, 1, 1, 0))
    with pytest.raises(CompositionMismatch):
        mixed_eulerian_degree(m, (1, -1, 1, 1))


FROZEN = [
    # (builder args, composition, value)
    (("boolean", 4), (0, 3, 0), 4),
    (("boolean", 4), (1, 0, 2), 3),
    (("boolean", 4), (1, 1, 1), 6),
    (("boolean", 4), (2, 1, 0), 2),
    (("boolean", 4), (3, 0, 0), 1),
    (("boolean", 4), (0, 0, 3), 1),
]


def _build(spec):
    kind = spec[0]
    if kind == "boolean":
        return build_boolean(spec[1])
    if kind == "uniform":
        return build_uniform(spec[1], spec[2])
    raise AssertionError(kind)


@pytest.mark.parametrize("spec,c,want", FROZEN)
@pytest.mark.parametrize("convention", ["oi", "mult"])
# the flag oracle, and the DP held to the rank view by the rank_view_only
# fixture; the id "sizes" stays so that the test ids stay stable
@pytest.mark.parametrize(
    "degree", [pytest.param(flag_degree, id="flag"), pytest.param(gamma_product_degree, id="sizes")]
)
def test_frozen_boolean_degrees(spec, c, want, convention, degree, rank_view_only):
    assert degree(_build(spec), composition_to_indices(c), convention) == want


def test_frozen_fano_degrees():
    f = build_projective_geometry(2, 2)
    for conv in ("oi", "mult"):
        assert gamma_product_degree(f, (1, 1), conv) == 8
        assert gamma_product_degree(f, (1, 3), conv) == 24
        assert gamma_product_degree(f, (3, 3), conv) == 16


def test_frozen_other_degrees():
    u35 = build_uniform(3, 5)
    assert gamma_product_degree(u35, (3, 3)) == 4
    sp = build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)])
    assert gamma_product_degree(sp, (1, 2)) == 16
    assert gamma_product_degree(sp, (1, 2), "mult") == 16


def test_degree_is_order_invariant():
    rng = random.Random(20240817)
    pool = [
        build_uniform(3, 5),
        build_projective_geometry(2, 2),
        build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
    ]
    for _ in range(30):
        m = pool[rng.randrange(len(pool))]
        v = [rng.randint(1, m.n) for _ in range(m.r)]
        base = gamma_product_degree(m, v)
        w = list(v)
        rng.shuffle(w)
        ex = expand_gamma_product(m, w)
        deg = sum(wt for flag, wt in ex.terms.items() if len(flag) == m.r)
        assert deg == base


SMALL = {name: m for name, m in named_catalog().items() if m.m <= 7}


@pytest.mark.parametrize("convention", ["oi", "mult"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_pruned_expansion_matches_unpruned(name, convention):
    m = SMALL[name]
    scale = weight_scale(m.m, convention)

    def unpruned(vs):
        terms = expand_unpruned(m, vs, convention, scale)
        if convention == "mult":
            return {flag: Fraction(w, scale ** len(vs)) for flag, w in terms.items()}
        return terms

    for c in compositions(m.r, m.n):
        vs = composition_to_indices(c)
        for order in (vs, vs[::-1]):
            want = unpruned(order)
            assert expand_gamma_product(m, order, convention).terms == want, order
            assert flag_degree(m, order, convention) == sum(want.values())
    rng = random.Random(20261019)
    for _ in range(12 if m.r else 0):
        vs = tuple(rng.randint(1, m.n) for _ in range(rng.randrange(m.r)))
        assert expand_gamma_product(m, vs, convention).terms == unpruned(vs), vs


@pytest.mark.parametrize("name", ["b4", "u36", "fano", "sp361"])
def test_every_insertion_of_a_maximal_flag_is_viable(name):
    m = SMALL[name]
    rank = m._rank_of_flat
    for convention in ("oi", "mult"):
        scale = weight_scale(m.m, convention)
        for c in compositions(m.r, m.n):
            vs = composition_to_indices(c)
            for order in (vs, vs[::-1]):
                trees = [t for t, _ in trees_unpruned(m, order, convention)]
                flags = expand_unpruned(m, order, convention, scale)
                assert {t.flats for t in trees} == set(flags), order
                for tree in trees:
                    for t in range(1, tree.size + 1):
                        left, right = tree.neighbors_at_insertion(t)
                        lo = 0 if left is None else tree.flats[left]
                        hi = m.full_mask if right is None else tree.flats[right]
                        g = tree.flats[tree.position_of_label(t)]
                        assert viable(rank, lo, g, hi, order[t:]), (order, tree)


@pytest.mark.parametrize("convention", ["oi", "mult"])
@pytest.mark.parametrize("name", sorted(named_catalog()))
def test_window_keeps_exactly_the_viable_flats(name, convention, monkeypatch):
    """At every gap and step that the flag expansion meets on a product of
    length r, in either order, _entering keeps exactly the flats of nonzero
    weight that pass viable: the DP's size windows, taken over the classes
    left inside the gap, are the counting rule."""
    m = fresh(named_catalog()[name])
    rank = m._rank_of_flat
    entering = expansion._entering
    met = set()
    weighted = {}  # (lo, hi, val) -> the flats of nonzero weight, by scan

    def checked(matroid, table, lo, hi, vs, i, convention, scale):
        gap = entering(matroid, table, lo, hi, vs, i, convention, scale)
        if (lo, hi, vs, i) not in met:
            met.add((lo, hi, vs, i))
            val = vs[i]
            if (lo, hi, val) not in weighted:
                weighted[lo, hi, val] = [
                    (g, wt)
                    for g in flats_between_scan(m, lo, hi)
                    if (wt := insertion_weight(lo, hi, g, val, convention, scale))
                ]
            want = [(g, wt) for g, wt in weighted[lo, hi, val] if viable(rank, lo, g, hi, vs[i + 1 :])]
            assert sorted(gap) == sorted(want), (vs, i, lo, hi)
        return gap

    monkeypatch.setattr(expansion, "_entering", checked)
    scale = weight_scale(m.m, convention)
    for c in compositions(m.r, m.n):
        vs = composition_to_indices(c)
        for order in (vs, vs[::-1]):
            expansion._expand(m, order, convention, scale)
    assert met or not m.r


def test_viable_counts_each_gap_and_rejects_hits():
    m = build_boolean(4)  # rank 4: a maximal flag has flats of sizes 1, 2, 3
    rank = m._rank_of_flat
    point, line = mask_of([0]), mask_of([0, 1])
    assert viable(rank, 0, point, m.full_mask, (2, 3))
    assert not viable(rank, 0, point, m.full_mask, (1, 2, 3))  # 1 hits |point|
    assert not viable(rank, 0, point, m.full_mask, (3,))
    assert not viable(rank, 0, point, m.full_mask, (2, 2, 3))
    assert viable(rank, 0, line, m.full_mask, (1, 3))
    assert not viable(rank, 0, line, m.full_mask, (3, 3))
    assert not viable(rank, 0, line, m.full_mask, (1, 1))
    assert not viable(rank, 0, line, m.full_mask, (1, 2, 3))
    # classes outside the gap belong to other gaps
    assert viable(rank, point, line, m.full_mask, (3,))
    assert viable(rank, point, line, mask_of([0, 1, 2]), ())


def test_entering_filters_the_shared_weights_per_call():
    m = build_boolean(4)  # r = 3, so (2, 1) is a shorter product
    full = m.full_mask
    table = {}
    gap = _entering(m, table, 0, full, (2, 1), 0, "oi", 1)
    # a point would be hit by the class 1 still to come: only lines and planes
    assert gap and {g.bit_count() for g, _ in gap} <= {2, 3}
    assert table == {(0, full, 0): gap}
    # one weight per flat of the interval store, rank by rank, zeros included
    levels, kept = m._levels[0, full], m._gap_weights["oi", 0, full, 2]
    assert [len(wts) for wts in kept] == [len(flats) for flats, _ in levels] == [4, 6, 4]
    nonzero = [(g, wt) for (flats, _), wts in zip(levels, kept) for g, wt in zip(flats, wts) if wt]
    assert {g.bit_count() for g, _ in nonzero} == {1, 2, 3}
    assert set(gap) <= set(nonzero)
    # another call, with nothing left after the class, filters the same weights anew
    assert _entering(m, {}, 0, full, (2,), 0, "oi", 1) == nonzero
    assert list(m._gap_weights) == [("oi", 0, full, 2)]


def test_sizes_engine_matches_flag_engine_exhaustively(rank_view_only):
    for rank, m in ((2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (2, 6), (5, 5)):
        M = build_uniform(rank, m)
        for c in compositions(M.r, M.n):
            for conv in ("oi", "mult"):
                assert mixed_eulerian_degree(M, c, conv) == flag_degree(
                    M, composition_to_indices(c), conv
                ), (rank, m, c, conv)


def test_sizes_engine_matches_flag_engine_sampled_large(rank_view_only):
    rng = random.Random(99)
    for rank, m in ((4, 7), (5, 7), (7, 7), (4, 8)):
        M = build_uniform(rank, m)
        for _ in range(6):
            v = sorted(rng.randint(1, M.n) for _ in range(M.r))
            for conv in ("oi", "mult"):
                want = flag_degree(M, v, conv)
                assert gamma_product_degree(M, v, conv) == want, (rank, m, v, conv)


def test_boolean_single_support_is_eulerian():
    for n in (2, 3, 4, 5):
        B = build_boolean(n + 1)
        for k in range(1, n + 1):
            c = [0] * n
            c[k - 1] = n
            assert mixed_eulerian_degree(B, c) == eulerian_number(n, k - 1)


def test_uniform_repeated_class_closed_form():
    for rank, m in ((2, 4), (2, 5), (3, 5), (3, 6), (4, 6)):
        M = build_uniform(rank, m)
        n, r = M.n, M.r
        for k in range(1, n + 1):
            want = sum(comb(n - j, r) * eulerian_number(r, k - j - 1) for j in range(k))
            c = [0] * n
            c[k - 1] = r
            assert mixed_eulerian_degree(M, c) == want
        for k in range(r, n + 1):
            c = [0] * n
            c[k - 1] = r
            assert mixed_eulerian_degree(M, c) == (n + 1 - k) ** r


def test_descending_flag_counts():
    # frozen mu-vectors
    cases = [
        (build_projective_geometry(2, 2), (1, 6, 8)),
        (build_boolean(4), (1, 3, 3, 1)),
        (build_uniform(3, 5), (1, 4, 6)),
        (build_uniform(2, 3), (1, 2)),
    ]
    for M, mus in cases:
        r, n = M.r, M.n
        for k in range(r + 1):
            v = [1] * k + [n] * (r - k)
            assert gamma_product_degree(M, v) == mus[k]
            assert count_initial_descending_flags(M, k) == mus[k]
    with pytest.raises(VOutOfRange):
        count_initial_descending_flags(build_uniform(2, 3), 5)


def test_descending_flag_count_leaves_no_cycle():
    # the count recurses through a module-level function, so the matroid
    # dies at del without the cycle collector
    gc.collect()
    gc.disable()
    try:
        m = build_projective_geometry(2, 3)
        assert count_initial_descending_flags(m, 2) == 27  # mu^2 of PG(2, 3)
        alive = weakref.ref(m)
        del m
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_boolean_descending_flags_are_binomial():
    for n in (2, 3, 4, 5):
        B = build_boolean(n + 1)
        for k in range(n + 1):
            assert count_initial_descending_flags(B, k) == comb(n, k)


def test_pvol_frozen_and_identity():
    assert pvol(build_uniform(2, 3)) == 3
    assert pvol(build_boolean(4)) == 96
    for n in (1, 2, 3, 4):
        B = build_boolean(n + 1)
        assert pvol(B) == factorial(n) * (n + 1) ** (n - 1)
        assert pvol(B, "mult") == pvol(B)
    f = build_projective_geometry(2, 2)
    assert pvol(f) == pvol(f, "mult") == flag_loop_pvol(f, "oi")


def test_pvol_is_multinomial_sum_of_degrees():
    for M in (build_uniform(2, 3), build_uniform(2, 4), build_boolean(4)):
        n, r = M.n, M.r
        total = 0
        for c in compositions(r, n):
            coef = factorial(r)
            for x in c:
                coef //= factorial(x)
            total += coef * mixed_eulerian_degree(M, c)
        assert total == pvol(M)


def test_degrees_are_nonnegative():
    rng = random.Random(5)
    pool = [
        build_uniform(2, 5),
        build_uniform(4, 6),
        build_projective_geometry(2, 2),
        build_sparse_paving(3, 6, [(0, 1, 2), (2, 3, 4)]),
    ]
    for _ in range(40):
        M = pool[rng.randrange(len(pool))]
        v = sorted(rng.randint(1, M.n) for _ in range(M.r))
        assert gamma_product_degree(M, v) >= 0


def test_mult_class_identity_against_top_class():
    # gamma_k aggregates as (n+1-k) gamma_n minus overweight of large flats:
    # per flat of size s the weight identity
    # mult(s,k) = (n+1-k) mult(s,n) - max(s-k, 0) over universe n+1
    for m in (4, 5, 7):
        n = m - 1
        for k in range(1, n + 1):
            for s in range(1, m):
                lhs = mult_weight(s, k, m)
                rhs = (n + 1 - k) * mult_weight(s, n, m) - max(s - k, 0)
                assert lhs == rhs


def test_log_concavity_small():
    for M in (build_uniform(3, 5), build_projective_geometry(2, 2), build_boolean(5)):
        n, r = M.n, M.r
        base = [0] * n
        extra = r - 2
        base[n - 1] = extra  # park leftover weight on gamma_n
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                res = log_concavity_check(M, base, i, j)
                assert res.holds, (M.provenance, i, j, res)


def test_check_composition():
    assert check_composition([1, 0, 2], 3, 3) == (1, 0, 2)
    assert check_composition((), 0, 0) == ()
    for bad in ((1, 2), (1, 0, 1, 1), (4, -1, 0), (1, 0, 1)):
        with pytest.raises(CompositionMismatch):
            check_composition(bad, 3, 3)


def test_log_concavity_validates():
    M = build_uniform(3, 5)
    with pytest.raises(CompositionMismatch):
        log_concavity_check(M, [1, 0, 0, 0], 1, 2)
    # sums to r - 2 but holds a negative entry
    with pytest.raises(CompositionMismatch):
        log_concavity_check(build_uniform(4, 6), (-1, 2, 0, 0, 0), 1, 1)
    with pytest.raises(VOutOfRange):
        log_concavity_check(M, [0, 0, 0, 0], 0, 2)


@pytest.mark.parametrize("m", [build_boolean(1), build_boolean(2), build_uniform(2, 4)], ids=repr)
def test_log_concavity_needs_rank_two(m):
    # r < 2 leaves no room for the two bumped classes; c would have to sum to r - 2 < 0
    assert m.r < 2
    with pytest.raises(RankTooSmall, match="needs r >= 2") as raised:
        log_concavity_check(m, (0,) * m.n, 1, 1)
    assert isinstance(raised.value, InputError)
