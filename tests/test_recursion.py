"""Relation-based evaluators replayed against the flag expansion."""

import gc
import itertools
import math
import random
import weakref

import pytest

from mixeuler import (
    build_boolean,
    build_from_bases,
    build_sparse_paving,
    build_uniform,
)
from mixeuler.errors import PreconditionViolation, RankTooSmall, VOutOfRange
from mixeuler.expansion import (
    CONVENTIONS,
    composition_to_indices,
    compositions,
    gamma_product_degree,
)
from mixeuler.recursion import (
    c_degree,
    classify_support,
    cv_polynomial,
    cv_via_tutte_convolution,
    deletion_contraction_degree,
    eulerian_recursion_degree,
)
from mixeuler.catalog import named_catalog
from mixeuler.tutte import tutte_polynomial

from reference import eulerian_per_flat, flag_degree, two_block_degree
from seeded import SPARSE_PAVING_SEEDS, random_sparse_paving
from test_matroid import SMALL_CATALOG, fresh

FANO_LINES = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]


def build_fano():
    bases = [b for b in itertools.combinations(range(7), 3) if set(b) not in FANO_LINES]
    return build_from_bases(7, bases)


def build_parallel():
    # U_{3,4} with an element glued parallel to element 3
    return build_from_bases(
        5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)]
    )


def catalog():
    return {
        "u24": build_uniform(2, 4),
        "u35": build_uniform(3, 5),
        "b4": build_boolean(4),
        "fano": build_fano(),
        "sp362": build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
        "parallel": build_parallel(),
    }


def contiguous_sorted_vectors(n, length):
    out = []
    for v in itertools.combinations_with_replacement(range(1, n + 1), length):
        supp = sorted(set(v))
        if all(b - a == 1 for a, b in zip(supp, supp[1:])):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# support classification


def test_classify_contiguous():
    m = build_uniform(4, 6)
    cls = classify_support(m, (1, 2, 2))
    assert cls.contiguous
    assert cls.flatly_contiguous
    assert cls.interval == (1, 2)


def test_classify_fano_gap_is_flatly_contiguous():
    # Fano proper flats have sizes 1 and 3 only, so (1, 3) skips nothing
    cls = classify_support(build_fano(), (1, 3))
    assert not cls.contiguous
    assert cls.flatly_contiguous
    assert cls.interval == (1, 3)


def test_classify_boolean_gap_is_not():
    cls = classify_support(build_boolean(4), (1, 3))
    assert not cls.contiguous
    assert not cls.flatly_contiguous
    assert cls.interval is None


def test_classify_empty_vector_rejected():
    with pytest.raises(PreconditionViolation):
        classify_support(build_boolean(3), ())


def test_contiguous_implies_flatly_contiguous():
    for m in catalog().values():
        for v in contiguous_sorted_vectors(m.n, m.r):
            cls = classify_support(m, v)
            assert cls.contiguous
            assert cls.flatly_contiguous


# ---------------------------------------------------------------------------
# eulerian-type one-step relation


def test_eulerian_fano_pair():
    assert eulerian_recursion_degree(build_fano(), (1, 1), 1) == 8


def test_eulerian_boolean_triple():
    assert eulerian_recursion_degree(build_boolean(4), (2, 2, 2), 1) == 4


def test_eulerian_requires_repeat():
    with pytest.raises(PreconditionViolation):
        eulerian_recursion_degree(build_uniform(3, 4), (1, 2), 1)


def test_eulerian_requires_sorted():
    with pytest.raises(PreconditionViolation):
        eulerian_recursion_degree(build_uniform(3, 4), (2, 1), 1)


def test_eulerian_requires_flatly_contiguous():
    with pytest.raises(PreconditionViolation):
        eulerian_recursion_degree(build_boolean(4), (1, 3, 3), 2)


@pytest.mark.parametrize("convention", ["oi", "mult"])
def test_eulerian_sweep_matches_oracle(convention):
    for name, m in catalog().items():
        r, n = m.r, m.n
        for v in itertools.combinations_with_replacement(range(1, n + 1), r):
            if not classify_support(m, v).flatly_contiguous:
                continue
            reps = [j for j in range(1, r + 1) if v.count(v[j - 1]) >= 2]
            if not reps:
                continue
            want = gamma_product_degree(m, v)
            for j in reps:
                got = eulerian_recursion_degree(m, v, j, convention=convention)
                assert got == want, (name, v, j)


EULERIAN_MATROIDS = {
    **named_catalog(),
    "parallel": build_parallel(),  # rank-1 flats of two sizes
    **{f"sparse{seed}": random_sparse_paving(seed) for seed in SPARSE_PAVING_SEEDS},
}


@pytest.mark.parametrize("name", sorted(EULERIAN_MATROIDS))
def test_eulerian_groups_match_the_per_flat_sum(name):
    # every repeated position of every vector in the relation's domain, under
    # both conventions, on one matroid that keeps its groups across the calls
    shared, oracle = fresh(EULERIAN_MATROIDS[name]), fresh(EULERIAN_MATROIDS[name])
    r, n = shared.r, shared.n
    asked = 0
    for v in itertools.combinations_with_replacement(range(1, n + 1), r):
        if not v or not classify_support(shared, v).flatly_contiguous:
            continue
        for j in (j for j in range(1, r + 1) if v.count(v[j - 1]) >= 2):
            asked += 1
            for convention in CONVENTIONS:
                want = eulerian_per_flat(oracle, v, j, convention)
                assert eulerian_recursion_degree(shared, v, j, convention) == want, (v, j)
    assert bool(asked) == (r >= 2) == ("_eulerian" in vars(shared)), asked


# ---------------------------------------------------------------------------
# deletion / contraction


def test_delcon_u35_worked_value():
    m = build_uniform(3, 5)
    assert deletion_contraction_degree(m, (1, 2), 0, 0) == 12
    assert gamma_product_degree(m, (1, 2)) == 12


def test_delcon_fano_all_pivots():
    m = build_fano()
    for i in range(7):
        assert deletion_contraction_degree(m, (1, 2), 0, i) == 16


def test_delcon_boolean_coloops():
    # every element a coloop: the s = 0 branch drops the deletion term
    m = build_boolean(4)
    want = gamma_product_degree(m, (1, 2, 3))
    for i in range(4):
        assert deletion_contraction_degree(m, (1, 2, 3), 0, i) == want


def test_delcon_rank_too_small():
    with pytest.raises(RankTooSmall):
        deletion_contraction_degree(build_uniform(2, 4), (1,), 0, 0)


def test_delcon_requires_contiguous():
    with pytest.raises(PreconditionViolation):
        deletion_contraction_degree(build_uniform(3, 5), (1, 3), 0, 0)


def test_delcon_s_needs_leading_one():
    with pytest.raises(PreconditionViolation):
        deletion_contraction_degree(build_uniform(3, 5), (2,), 1, 0)


def test_delcon_parallel_regression():
    # element 4 is parallel to 3, so pivoting there contracts a 2-element
    # closure; the contraction term must be skipped entirely when it cannot
    # fit under gamma_{v_1}, including the empty-child case that the
    # out-of-range convention cannot zero
    m = build_parallel()
    want = gamma_product_degree(m, (1, 4))
    assert want == 3
    for i in range(5):
        for conv in ("oi", "mult"):
            assert deletion_contraction_degree(m, (1,), 1, i, convention=conv) == want


@pytest.mark.parametrize("convention", ["oi", "mult"])
def test_delcon_sweep_matches_oracle(convention):
    for name, m in catalog().items():
        if m.rank_total < 3:
            continue
        r, n = m.r, m.n
        for s in range(0, r + 1):
            length = r - s
            if length == 0:
                continue
            for v in contiguous_sorted_vectors(n, length):
                if s > 0 and v[0] != 1:
                    continue
                want = gamma_product_degree(m, tuple(v) + (n,) * s)
                for i in range(m.m):
                    got = deletion_contraction_degree(m, v, s, i, convention=convention)
                    assert got == want, (name, v, s, i)


@pytest.mark.parametrize(
    "name", sorted(name for name, m in SMALL_CATALOG.items() if m.rank_total >= 3)
)
def test_delcon_memo_across_calls_matches_flag(name):
    # every (v, s) of the relation's domain under both conventions, shuffled,
    # at random pivots on one matroid that keeps its memo across the calls
    shared, oracle = fresh(SMALL_CATALOG[name]), fresh(SMALL_CATALOG[name])
    n, r = shared.n, shared.r
    rng = random.Random(f"delcon-{name}")
    calls = [
        (v, s, convention)
        for s in range(r)
        for v in contiguous_sorted_vectors(n, r - s)
        if s == 0 or v[0] == 1
        for convention in CONVENTIONS
    ]
    rng.shuffle(calls)
    for v, s, convention in calls:
        want = flag_degree(oracle, v + (n,) * s, convention)
        got = deletion_contraction_degree(shared, v, s, rng.randrange(shared.m), convention)
        assert got == want, (v, s, convention)
    assert set(shared._delcon) == set(CONVENTIONS)
    assert all(shared._delcon.values())


# ---------------------------------------------------------------------------
# two-block reduction


def test_two_block_u45():
    m = build_uniform(4, 5)
    assert two_block_degree(m, (1,), (4, 4)) == 4
    assert gamma_product_degree(m, (1, 4, 4)) == 4


def test_two_block_fano():
    assert two_block_degree(build_fano(), (1,), (3,)) == 24


def test_two_block_rejects_overlap():
    with pytest.raises(PreconditionViolation):
        two_block_degree(build_uniform(4, 5), (1, 2), (2,))


def test_two_block_rejects_missing_one():
    with pytest.raises(PreconditionViolation):
        two_block_degree(build_uniform(4, 5), (2,), (4, 4))


def test_two_block_rejects_small_high_block():
    # largest proper flat of U_{4,5} has size 3 > 2
    with pytest.raises(PreconditionViolation):
        two_block_degree(build_uniform(4, 5), (1, 1), (2,))


@pytest.mark.parametrize("convention", ["oi", "mult"])
def test_two_block_sweep_matches_oracle(convention):
    for name, m in catalog().items():
        r, n = m.r, m.n
        if r < 2:
            continue
        max_proper = max(m.proper_flat_sizes())
        for ell in range(1, r):
            for v in itertools.combinations_with_replacement(range(1, n + 1), ell):
                if v[0] != 1 or not classify_support(m, v).flatly_contiguous:
                    continue
                for w in itertools.combinations_with_replacement(range(1, n + 1), r - ell):
                    if set(v) & set(w) or max_proper > max(w):
                        continue
                    if not classify_support(m, w).flatly_contiguous:
                        continue
                    want = gamma_product_degree(m, tuple(sorted(v + w)))
                    got = two_block_degree(m, v, w, convention=convention)
                    assert got == want, (name, v, w)


# ---------------------------------------------------------------------------
# warm minors: relations on one shared matroid equal those on fresh ones


def relation_calls(m, vs, rng):
    """(name, relation, arguments before the convention) for each relation
    whose domain holds the sorted vector vs: eulerian at the first repeat,
    delcon at s = 0 on a seeded pivot, and two_block at every split of vs
    into a low and a high block."""
    calls = []
    support = classify_support(m, vs)
    repeat = next((j for j, x in enumerate(vs, 1) if vs.count(x) >= 2), None)
    if support.flatly_contiguous and repeat:
        calls.append(("eulerian", eulerian_recursion_degree, (vs, repeat)))
    if support.contiguous and m.rank_total >= 3:
        calls.append(("delcon", deletion_contraction_degree, (vs, 0, rng.randrange(m.m))))
    for ell in range(1, len(vs)):
        v, w = vs[:ell], vs[ell:]
        if (
            v[0] == 1
            and v[-1] < w[0]
            and max(m.proper_flat_sizes()) <= w[-1]
            and classify_support(m, v).flatly_contiguous
            and classify_support(m, w).flatly_contiguous
        ):
            calls.append(("two_block", two_block_degree, (v, w)))
    return calls


@pytest.mark.parametrize("name", sorted(SMALL_CATALOG))
def test_warm_relations_match_fresh_matroids_and_flag(name):
    shared = fresh(SMALL_CATALOG[name])
    rng = random.Random(f"warm-{name}")
    cs = list(compositions(shared.r, shared.n))
    rng.shuffle(cs)
    ran = set()
    for c in cs:
        vs = composition_to_indices(c)
        calls = relation_calls(shared, vs, rng) if vs else []
        for convention in CONVENTIONS if calls else ():
            want = flag_degree(shared, vs, convention)
            for pipeline, relation, args in calls:
                ran.add(pipeline)
                got = relation(shared, *args, convention)
                assert got == want, (pipeline, c, convention)
                assert relation(fresh(shared), *args, convention) == want, (pipeline, c)
    if shared.rank_total >= 3:
        assert ran and shared._minors


@pytest.mark.parametrize(
    "relation",
    [
        lambda m, convention: eulerian_recursion_degree(m, (1, 1, 2), 1, convention),
        lambda m, convention: deletion_contraction_degree(m, (1, 2, 3), 0, 0, convention),
        lambda m, convention: cv_via_tutte_convolution(m, (1, 2, 3), convention),
    ],
    ids=["eulerian", "delcon", "convolution"],
)
def test_relations_refuse_an_unknown_convention_before_any_work(relation):
    # each bad name raises before the relation reads or makes a store
    m = build_uniform(4, 6)
    core = set(vars(m))
    for bad in ("a", "b", "c"):
        with pytest.raises(VOutOfRange):
            relation(m, bad)
    assert set(vars(m)) == core


# ---------------------------------------------------------------------------
# index-shift generating polynomial and Tutte identities


def test_cv_polynomial_fano():
    assert cv_polynomial(build_fano(), (1, 2)).coeffs == (16, 20, 12, 6, 2)


def test_cv_polynomial_tiny_boolean_constant():
    # gamma_3 vanishes on the 3-element Boolean matroid, so no shift survives
    assert cv_polynomial(build_boolean(3), (1, 2)).coeffs == (2,)


def test_cv_polynomial_top_entry_is_constant():
    m = build_uniform(3, 5)
    poly = cv_polynomial(m, (4, 4))
    assert poly.degree == 0
    assert poly[0] == gamma_product_degree(m, (4, 4))


def test_cv_polynomial_wrong_length():
    with pytest.raises(PreconditionViolation):
        cv_polynomial(build_uniform(3, 5), (1,))


def test_convolution_u35():
    assert cv_via_tutte_convolution(build_uniform(3, 5), (3, 3)) == 4
    assert gamma_product_degree(build_uniform(3, 5), (3, 3)) == 4


def test_convolution_fano_shift():
    # one step up from (1,2): the y^1 coefficient of the same polynomial
    assert cv_via_tutte_convolution(build_fano(), (2, 3)) == 20


def test_convolution_noncontiguous_rejected():
    with pytest.raises(PreconditionViolation):
        cv_via_tutte_convolution(build_boolean(4), (1, 1, 3))


def test_convolution_builds_one_boolean_per_matroid(monkeypatch):
    from mixeuler import matroid as matroid_module

    calls = []

    def counted(rank):
        calls.append(rank)
        return build_boolean(rank)

    monkeypatch.setattr(matroid_module, "build_boolean", counted)
    m = build_uniform(5, 8)
    swept = 0
    for c in compositions(m.r, m.n):
        v = composition_to_indices(c)
        if classify_support(m, v).contiguous:
            assert cv_via_tutte_convolution(m, v) == c_degree(m, v, 0), c
            swept += 1
    assert swept > 1
    assert calls == [5]


def test_convolution_data_dies_with_its_matroid():
    # the matroid holds its Boolean and T_M(1, y); neither refers back,
    # so the matroid dies at del without the cycle collector
    gc.collect()
    gc.disable()
    try:
        m = build_uniform(3, 5)
        assert cv_via_tutte_convolution(m, (3, 3)) == 4
        alive = weakref.ref(m)
        del m
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("convention", ["oi", "mult"])
def test_convolution_sweep_matches_direct(convention):
    for name, m in catalog().items():
        for v in contiguous_sorted_vectors(m.n, m.r):
            got = cv_via_tutte_convolution(m, v, convention=convention)
            want = c_degree(m, v, 0, convention)
            assert got == want, (name, v)


def test_factorization_against_boolean():
    # for contiguous sorted v starting at 1 the polynomial splits off T(1, y)
    for name, m in catalog().items():
        t1y = tutte_polynomial(m).specialize_y(1)
        boolean = build_boolean(m.rank_total)
        for v in contiguous_sorted_vectors(m.n, m.r):
            if v[0] != 1:
                continue
            assert cv_polynomial(m, v) == t1y * cv_polynomial(boolean, v), (name, v)


def test_staircase_gives_factorial_times_tutte():
    for name, m in catalog().items():
        r = m.r
        if r > m.n:
            continue
        got = cv_polynomial(m, tuple(range(1, r + 1)))
        t1y = tutte_polynomial(m).specialize_y(1)
        want = math.factorial(r) * t1y
        assert got == want, name


def test_staircase_specializations():
    for name, m in catalog().items():
        r = m.r
        if r > m.n:
            continue
        t = tutte_polynomial(m)
        fact = math.factorial(r)
        assert gamma_product_degree(m, tuple(range(1, r + 1))) == fact * t.substitute(1, 0)
        bases = t.substitute(1, 1)
        for v in contiguous_sorted_vectors(m.n, r):
            if v[0] == 1:
                assert cv_polynomial(m, v)(1) == fact * bases, (name, v)
        # each contiguous sorted vector is a unique upward shift of one
        # starting at 1, so the grand total collapses to compositions of r
        total = sum(c_degree(m, v, 0) for v in contiguous_sorted_vectors(m.n, r))
        assert total == fact * 2 ** (r - 1) * bases, name
