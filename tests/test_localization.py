"""Descent-sum degree formula against the flag engine."""

import gc
import itertools
import random
import sys
import weakref

import pytest

from mixeuler import (
    build_boolean,
    build_from_bases,
    build_sparse_paving,
    build_uniform,
    localization,
)
from mixeuler.errors import (
    CompositionMismatch,
    ExponentMismatch,
    PreconditionViolation,
    SizeViolation,
)
from mixeuler.expansion import (
    compositions,
    gamma_product_degree,
    insertion_weight,
    mixed_eulerian_degree,
)
from mixeuler.catalog import named_catalog
from mixeuler.localization import gamma_degree_via_localization, lambda_monomial_degree

from reference import (
    descent_rule_value,
    descent_target,
    lambda_restriction_vector,
    localization_walk,
    perm_classes_walk,
    perm_flag_and_basis,
    series_constant_term,
)
from seeded import seeded_sparse_paving

FANO_LINES = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]


def build_fano():
    bases = [b for b in itertools.combinations(range(7), 3) if set(b) not in FANO_LINES]
    return build_from_bases(7, bases)


# ---------------------------------------------------------------------------
# permutation flag data


def test_prefix_flag_rank_two():
    pe = perm_flag_and_basis(build_uniform(2, 3), (2, 0, 1))
    assert pe.flag == (0, 0b100, 0b111)
    assert pe.k_set == (0, 1)
    assert pe.basis_mask == 0b101
    assert pe.descents == frozenset({0})


def test_boolean_every_prefix_jumps():
    m = build_boolean(4)
    for w in itertools.permutations(range(4)):
        assert perm_flag_and_basis(m, w).k_set == (0, 1, 2, 3)


def test_fano_line_swallows_third_point():
    # after two points of a line, the third adds nothing: position 2 skipped
    pe = perm_flag_and_basis(build_fano(), (0, 1, 2, 3, 4, 5, 6))
    assert 2 not in pe.k_set
    assert pe.k_set == (0, 1, 3)


def test_jump_positions_start_at_zero():
    m = build_uniform(3, 5)
    for w in itertools.permutations(range(5)):
        pe = perm_flag_and_basis(m, w)
        assert pe.k_set[0] == 0
        assert len(pe.k_set) == m.rank_total
        assert m.rank(pe.basis_mask) == m.rank_total


def test_perm_must_be_bijection():
    with pytest.raises(PreconditionViolation):
        perm_flag_and_basis(build_uniform(2, 3), (0, 1, 1))


# ---------------------------------------------------------------------------
# descent targets


def test_descent_target_examples():
    assert descent_target((0, 1, 1), (0, 1, 2)).indices == frozenset({0, 1})
    assert descent_target((0, 2, 0), (0, 1, 2)).indices == frozenset({0})
    assert descent_target((1, 1, 0), (0, 1, 2)).indices == frozenset()


def test_descent_target_counts_missing_positions():
    # positions outside the jump set get a +1 in the running sum
    assert descent_target((0, 0, 0, 1), (0, 1)).indices == frozenset({0, 1, 2})


def test_target_mask_matches_descent_target():
    # every exponent vector the degree formula meets sums to at most n
    for n in range(6):
        subsets = [
            k for size in range(n + 2) for k in itertools.combinations(range(n + 1), size)
        ]
        for total in range(n + 1):
            for support in itertools.combinations_with_replacement(range(n + 1), total):
                d = tuple(support.count(i) for i in range(n + 1))
                prefix = localization._prefix_sums(d)
                for k in subsets:
                    counts = tuple(sum(1 for j in k if j <= i) for i in range(n))
                    want = sum(1 << i for i in descent_target(d, k).indices)
                    assert localization._target_mask(prefix, counts) == want, (d, k)


# ---------------------------------------------------------------------------
# the class table against a walk over every permutation


def walked_table(m):
    # the prefix-tree walk's classes, keyed as the DP keys them
    out = {}
    for k_set, by_des in perm_classes_walk(m).items():
        counts = tuple(sum(1 for j in k_set if j <= i) for i in range(m.n))
        out[counts] = {sum(1 << i for i in des): cnt for des, cnt in by_des.items()}
    return out


@pytest.mark.parametrize(
    "build",
    [
        *[
            pytest.param(lambda m=m: m, id=name)
            for name, m in named_catalog().items()
            if m.m <= 8
        ],
        pytest.param(lambda: seeded_sparse_paving(8, 4, 20240901, 3), id="sp8_20240901"),
        pytest.param(lambda: seeded_sparse_paving(8, 4, 20240902, 3), id="sp8_20240902"),
    ],
)
def test_class_table_matches_permutation_walk(build):
    m = build()
    assert dict(localization._class_table(m)) == walked_table(m)


# ---------------------------------------------------------------------------
# lambda monomials


def test_lambda_monomial_worked_values():
    u33 = build_boolean(3)
    assert lambda_monomial_degree(u33, (0, 1, 1)) == 1
    assert lambda_monomial_degree(u33, (0, 2, 0)) == -2
    assert lambda_monomial_degree(build_uniform(2, 3), (0, 0, 1)) == 1


def test_lambda_monomial_validation():
    m = build_uniform(2, 3)
    with pytest.raises(ExponentMismatch):
        lambda_monomial_degree(m, (0, 1))
    with pytest.raises(ExponentMismatch):
        lambda_monomial_degree(m, (0, 1, 1))
    with pytest.raises(ExponentMismatch):
        lambda_monomial_degree(m, (0, 2, -1))


def lambda_oracle(m, d):
    # expand each lambda_i as gamma_i - gamma_{i+1} and use the flag engine
    n = m.n
    factors = [i for i, e in enumerate(d) for _ in range(e)]
    total = 0
    for choice in itertools.product(*[[(i, 1), (i + 1, -1)] for i in factors]):
        idx, sign, dead = [], 1, False
        for j, s in choice:
            if j == 0 or j > n:
                dead = True
                break
            idx.append(j)
            sign *= s
        if not dead:
            total += sign * gamma_product_degree(m, tuple(sorted(idx)))
    return total


def test_lambda_monomials_match_gamma_differences():
    rng = random.Random(20240819)
    mats = [
        build_uniform(2, 4),
        build_uniform(3, 4),
        build_uniform(4, 5),
        build_boolean(5),
        build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
        build_fano(),
    ]
    for m in mats:
        for _ in range(8):
            d = [0] * m.m
            for _ in range(m.r):
                d[rng.randrange(m.m)] += 1
            assert lambda_monomial_degree(m, tuple(d)) == lambda_oracle(m, tuple(d))


def per_permutation_degree(m, evals, d):
    # the descent rule summed over every permutation, with no class table
    total = 0
    for pe in evals:
        c = [x + (i not in pe.k_set) for i, x in enumerate(d)]
        total += descent_rule_value(pe.w, c)
    return (-1) ** m.n * total


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_boolean(4),
        lambda: build_uniform(3, 5),
        lambda: build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
        lambda: build_fano(),
    ],
)
def test_lambda_monomials_match_per_permutation_sum(build):
    m = build()
    evals = [perm_flag_and_basis(m, w) for w in itertools.permutations(range(m.m))]
    for support in itertools.combinations_with_replacement(range(m.m), m.r):
        d = tuple(support.count(i) for i in range(m.m))
        assert lambda_monomial_degree(m, d) == per_permutation_degree(m, evals, d), d


# ---------------------------------------------------------------------------
# gamma degrees through the permutation pass


def test_gamma_via_localization_worked():
    assert gamma_degree_via_localization(build_uniform(2, 3), (1, 0)) == 2
    assert gamma_degree_via_localization(build_boolean(3), (0, 2)) == 1
    assert gamma_degree_via_localization(build_fano(), (2, 0, 0, 0, 0, 0)) == 8


def test_gamma_via_localization_validation():
    m = build_uniform(3, 5)
    with pytest.raises(CompositionMismatch):
        gamma_degree_via_localization(m, (1, 1, 1, 1))
    with pytest.raises(CompositionMismatch):
        gamma_degree_via_localization(m, (1, 0, 0, 0))
    with pytest.raises(CompositionMismatch):
        gamma_degree_via_localization(m, (3, -1, 0, 0))


def test_ground_set_guard():
    with pytest.raises(SizeViolation):
        gamma_degree_via_localization(build_uniform(2, 9), (1,) + (0,) * 7)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_uniform(2, 4),
        lambda: build_uniform(3, 5),
        lambda: build_uniform(4, 6),
        lambda: build_boolean(5),
        lambda: build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
        lambda: build_fano(),
        lambda: seeded_sparse_paving(8, 4, 20240901, 3),
        *[
            pytest.param(lambda m=m: m, id=name)
            for name, m in named_catalog().items()
            if m.m <= 8
        ],
        pytest.param(lambda: seeded_sparse_paving(7, 3, 20240903), id="sp7_20240903"),
        pytest.param(lambda: seeded_sparse_paving(7, 4, 20240904), id="sp7_20240904"),
        pytest.param(lambda: seeded_sparse_paving(8, 3, 20240905), id="sp8_20240905"),
        pytest.param(lambda: build_boolean(8), id="b8"),
    ],
)
def test_all_compositions_match_oracle(build):
    # the change of basis, the walk over lambda monomials and the degree DP
    m = build()
    for c in compositions(m.r, m.n):
        want = mixed_eulerian_degree(m, c)
        assert gamma_degree_via_localization(m, c) == localization_walk(m, c) == want, c


# ---------------------------------------------------------------------------
# the change of basis: edge cases and its memo


@pytest.mark.parametrize(
    "build, c",
    [
        (lambda: build_boolean(1), ()),
        (lambda: build_boolean(2), (1,)),
        (lambda: build_uniform(1, 4), (0, 0, 0)),
    ],
    ids=["n0", "n1", "r0"],
)
def test_change_of_basis_edge_cases(build, c):
    m = build()
    assert list(compositions(m.r, m.n)) == [c]
    assert gamma_degree_via_localization(m, c) == localization_walk(m, c) == 1
    assert mixed_eulerian_degree(m, c) == 1


def test_sweep_memo_is_bounded_and_dies_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        m = build_boolean(8)
        cs = list(compositions(m.r, m.n))
        assert len(cs) == 1716
        for c in cs:
            gamma_degree_via_localization(m, c)
        memo = vars(m)["_localization"][1]
        # at most one state per (index, mixed vector), one per lambda monomial
        assert len(memo) <= m.n * len(cs) + len(cs)
        alive = weakref.ref(m)
        del m
        assert alive() is None
        assert sys.getrefcount(memo) == 2
    finally:
        gc.enable()


def test_a_second_sweep_reads_the_states():
    m = build_uniform(4, 7)
    cs = [c for c in compositions(m.r, m.n) if any(c[:-1])]
    want = [gamma_degree_via_localization(m, c) for c in cs]
    assert all(want)
    # no class table and no lambda monomial: only (index, mixed vector) keys
    memo = vars(m)["_localization"][1]
    m._localization = ((), {k: v for k, v in memo.items() if isinstance(k[-1], tuple)})
    assert [gamma_degree_via_localization(m, c) for c in cs] == want


@pytest.mark.parametrize(
    "build",
    [lambda: build_boolean(8), lambda: build_uniform(3, 5), build_fano],
    ids=["b8", "u35", "fano"],
)
def test_top_class_power_adds_one_entry(build):
    m = build()
    c = (0,) * (m.n - 1) + (m.r,)
    assert gamma_degree_via_localization(m, c) == mixed_eulerian_degree(m, c)
    assert len(m._localization[1]) == 1


# ---------------------------------------------------------------------------
# restriction vectors


def gamma_weights(m, k):
    # the nonzero oi weights of gamma_k on the proper flats, unscaled
    full = m.full_mask
    return {f: w for f in m.proper_flats() if (w := insertion_weight(0, full, f, k, "oi", 1))}


def test_lambda_top_equals_gamma_top():
    for m in [build_uniform(3, 5), build_fano()]:
        assert lambda_restriction_vector(m, m.n) == gamma_weights(m, m.n)


def test_lambda_minus_top_marks_large_flats():
    for m in [build_uniform(3, 5), build_fano()]:
        lamn = lambda_restriction_vector(m, m.n)
        for k in range(m.n + 1):
            lam = lambda_restriction_vector(m, k)
            for f in m.proper_flats():
                want = -1 if f.bit_count() >= k + 1 else 0
                assert lam.get(f, 0) - lamn.get(f, 0) == want


def test_lambda_equals_gamma_difference_up_to_linear_relation():
    # the leftover is the standard relation vector [n in F] - [k in F]
    for m in [build_uniform(3, 5), build_fano()]:
        top = 1 << m.n
        for k in range(1, m.n):
            lam = lambda_restriction_vector(m, k)
            gk = gamma_weights(m, k)
            gk1 = gamma_weights(m, k + 1)
            for f in m.proper_flats():
                lhs = lam.get(f, 0) - (gk.get(f, 0) - gk1.get(f, 0))
                rel = (1 if f & top else 0) - (1 if f & (1 << k) else 0)
                assert lhs == rel


def test_gamma_vector_matches_flag_engine_for_single_class():
    # degree of one gamma_k in rank 2 is the total weight over rank-1 flats
    m = build_uniform(2, 4)
    for k in range(1, m.n + 1):
        vec = gamma_weights(m, k)
        total = sum(vec.get(f, 0) for f in m.flats_by_rank[1])
        assert total == gamma_product_degree(m, (k,))


# ---------------------------------------------------------------------------
# constant-term lemma


def test_series_reversal_is_signed_by_length():
    # the fully descending permutation matches exponents concentrated at the end
    for n in range(1, 5):
        w = tuple(range(n, -1, -1))
        c = (0,) * n + (n,)
        assert series_constant_term(w, c) == (-1) ** n


def test_series_identity_permutation():
    # the identity has no descents; the staircase-deficit set must be empty
    for n in range(1, 5):
        w = tuple(range(n + 1))
        assert series_constant_term(w, (1,) * n + (0,)) == 1
        assert series_constant_term(w, (0,) * n + (n,)) == 0


def test_series_matches_descent_rule_random():
    rng = random.Random(20240817)
    for _ in range(100):
        n = rng.randint(1, 4)
        w = list(range(n + 1))
        rng.shuffle(w)
        cuts = sorted(rng.randint(0, n) for _ in range(n))
        c, prev = [], 0
        for x in cuts:
            c.append(x - prev)
            prev = x
        c.append(n - prev)
        assert series_constant_term(w, c) == descent_rule_value(w, c), (w, c)


def test_series_rejects_bad_exponents():
    with pytest.raises(ExponentMismatch):
        series_constant_term((0, 1, 2), (1, 1, 1))
    with pytest.raises(ExponentMismatch):
        series_constant_term((0, 1, 2), (2,))


def test_class_table_dies_with_its_matroid():
    m = build_uniform(2, 4)
    assert "_localization" not in vars(m)
    assert gamma_degree_via_localization(m, (1, 0, 0)) == mixed_eulerian_degree(m, (1, 0, 0))
    entry = vars(m)["_localization"]  # made by the query, not by this read
    assert entry is not None
    alive = weakref.ref(m)
    del m
    gc.collect()
    assert alive() is None
    assert sys.getrefcount(entry) == 2  # the local name and the call's argument


def test_class_table_dies_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        m = build_uniform(3, 5)
        c = (1, 0, 1, 0)
        assert gamma_degree_via_localization(m, c) == mixed_eulerian_degree(m, c)
        entry = vars(m)["_localization"]  # made by the query, not by this read
        assert entry is not None
        alive = weakref.ref(m)
        del m
        assert alive() is None
        assert sys.getrefcount(entry) == 2
    finally:
        gc.enable()


def test_class_table_and_memo_die_after_a_full_sweep():
    gc.collect()
    gc.disable()
    try:
        m = build_uniform(3, 5)
        for c in compositions(m.r, m.n):
            assert gamma_degree_via_localization(m, c) == mixed_eulerian_degree(m, c), c
        table, memo = m._localization
        assert len(memo) > 1
        alive = weakref.ref(m)
        del m
        assert alive() is None
        assert sys.getrefcount(table) == 2
        assert sys.getrefcount(memo) == 2
    finally:
        gc.enable()
