"""Acceptance gate: eleven exact-arithmetic criteria, one line each.

Run as `pytest -s tests/test_acceptance.py` to see every PASS/FAIL line;
without -s the lines surface for failing criteria only. Every comparison
is an exact integer or rational equality.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from mixeuler.expansion import (
    composition_to_indices,
    compositions,
    count_initial_descending_flags,
    expand_gamma_product,
    gamma_product_degree,
    indices_to_composition,
    log_concavity_check,
    mixed_eulerian_degree,
    pvol,
)
from mixeuler.localization import _global_sign, gamma_degree_via_localization
from mixeuler.matroid import (
    build_boolean,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
    mask_of,
)
from mixeuler.pmd import (
    lopsided_degree,
    pmd_profile,
    pmd_recurrence_check,
    remixed_eulerian_eval,
)
from mixeuler.polynomials import UniPoly
from mixeuler.recursion import (
    c_degree,
    classify_support,
    cv_polynomial,
    cv_via_tutte_convolution,
    deletion_contraction_degree,
    eulerian_recursion_degree,
)
from mixeuler.trees import aggregate_by_flag, enumerate_trees
from mixeuler.tutte import characteristic_data, tutte_polynomial

from reference import (
    descent_rule_value,
    pg_identity_check,
    series_constant_term,
    two_block_degree,
)


def report(num: int, label: str, bad: list) -> None:
    print(f"{'PASS' if not bad else 'FAIL'} criterion {num:2d}: {label}", flush=True)
    assert not bad, (num, label, bad[:5])


@lru_cache(maxsize=None)
def full_catalog():
    out = {}
    for n in range(1, 9):
        for rank_total in range(1, n + 2):
            out[f"u{rank_total}_{n + 1}"] = build_uniform(rank_total, n + 1)
    out["fano"] = build_projective_geometry(2, 2)
    out["pg23"] = build_projective_geometry(2, 3)
    out["pg32"] = build_projective_geometry(3, 2)
    out["sp360"] = build_sparse_paving(3, 6, [])
    out["sp361"] = build_sparse_paving(3, 6, [(0, 1, 2)])
    out["sp362"] = build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)])
    return out


def eulerian_count(n: int, k: int) -> int:
    """Permutations of n letters with exactly k descents, by brute force."""
    if not 0 <= k < max(n, 1):
        return 0
    return sum(
        1
        for p in itertools.permutations(range(n))
        if sum(a > b for a, b in zip(p, p[1:])) == k
    )


def is_lopsided(cs) -> bool:
    prefix = 0
    for j, x in enumerate(cs, start=1):
        prefix += x
        if prefix < j:
            return False
    return True


def first_repeat(vs):
    for k, val in enumerate(vs):
        if vs.count(val) >= 2:
            return k + 1
    return None


def contiguous_sorted_vectors(matroid):
    out = []
    for cs in compositions(matroid.r, matroid.n):
        vs = composition_to_indices(cs)
        if vs and set(vs) == set(range(vs[0], vs[-1] + 1)):
            out.append(vs)
    return out


def test_criterion_01_boolean_identities():
    bad = []
    for n in range(1, 7):
        matroid = build_boolean(n + 1)
        for cs in compositions(n, n):
            got = mixed_eulerian_degree(matroid, cs)
            if cs.count(n) == 1 and cs.count(0) == n - 1:
                k = cs.index(n) + 1
                if got != eulerian_count(n, k - 1):
                    bad.append(("single-block", n, cs, got))
            if all(x == 0 for x in cs[1:-1]):
                if got != comb(n, cs[0]):
                    bad.append(("two-end", n, cs, got))
            if cs == (1,) * n and got != factorial(n):
                bad.append(("all-ones", n, got))
            if is_lopsided(cs):
                want = prod(i ** c for i, c in enumerate(cs, start=1))
                if got != want:
                    bad.append(("lopsided", n, cs, got, want))
    report(1, "Boolean identities, exhaustive to six classes", bad)


def test_criterion_02_boolean_volume():
    bad = []
    for n in range(1, 7):
        got = pvol(build_boolean(n + 1))
        want = factorial(n) * (n + 1) ** (n - 1)
        if got != want:
            bad.append((n, got, want))
    report(2, "full-sum volume is n!(n+1)^(n-1) on Boolean matroids", bad)


def test_criterion_03_characteristic_coefficients():
    bad = []
    for name, matroid in sorted(full_catalog().items()):
        data = characteristic_data(matroid)
        for k in range(matroid.r + 1):
            v = (1,) * k + (matroid.n,) * (matroid.r - k)
            got = gamma_product_degree(matroid, v)
            flags = count_initial_descending_flags(matroid, k)
            if not (got == data.mu[k] == flags):
                bad.append((name, k, got, data.mu[k], flags))
    report(3, "mu powers equal end-product degrees and flag counts", bad)


def test_criterion_04_tutte_factorization():
    bad = []
    for name, matroid in sorted(full_catalog().items()):
        if not 1 <= matroid.r <= 4:
            continue
        r = matroid.r
        tutte = tutte_polynomial(matroid)
        t1y = tutte.substitute(1, UniPoly.variable())
        boolean = build_boolean(matroid.rank_total)
        fact = factorial(r)
        vectors = contiguous_sorted_vectors(matroid)
        for vs in vectors:
            if vs[0] != 1:
                continue
            if cv_polynomial(matroid, vs) != t1y * cv_polynomial(boolean, vs):
                bad.append((name, vs, "factorization"))
        staircase = tuple(range(1, r + 1))
        if cv_polynomial(matroid, staircase) != fact * t1y:
            bad.append((name, "staircase polynomial"))
        if gamma_product_degree(matroid, staircase) != fact * tutte.substitute(1, 0):
            bad.append((name, "staircase degree"))
        grand = sum(c_degree(matroid, vs, 0) for vs in vectors)
        if grand != fact * 2 ** (r - 1) * tutte.substitute(1, 1):
            bad.append((name, "grand total", grand))
    report(4, "interval products factor through the Tutte polynomial", bad)


def test_criterion_05_uniform_closed_forms():
    bad = []
    for r in range(1, 5):
        for n in range(r, 9):
            matroid = build_uniform(r + 1, n + 1)
            for k in range(1, n + 1):
                got = gamma_product_degree(matroid, (k,) * r)
                want = sum(
                    comb(n - j, r) * eulerian_count(r, k - j - 1) for j in range(k)
                )
                if got != want:
                    bad.append((r, n, k, got, want))
                if k >= r and got != (n + 1 - k) ** r:
                    bad.append((r, n, k, got, "power form"))
    report(5, "uniform pure powers match the descent convolution", bad)


def test_criterion_06_sparse_paving_shift():
    bad = []
    uniform = build_uniform(3, 6)
    tiny = build_boolean(3)
    for chs in ([], [(0, 1, 2)], [(0, 1, 2), (3, 4, 5)]):
        matroid = build_sparse_paving(3, 6, chs)
        for cs in compositions(2, 5):
            vs = composition_to_indices(cs)
            got = c_degree(matroid, vs, 0)
            want = c_degree(uniform, vs, 0)
            if vs[-1] <= 2:
                want -= len(chs) * c_degree(tiny, vs, 0)
            if got != want:
                bad.append((len(chs), vs, got, want))
    report(6, "each circuit-hyperplane shifts low products by one unit", bad)


def test_criterion_07_cross_pipeline_equivalence():
    bad = []
    small = {n: m for n, m in full_catalog().items() if m.m <= 7}
    for name, matroid in sorted(small.items()):
        degrees = {}
        for cs in compositions(matroid.r, matroid.n):
            vs = composition_to_indices(cs)
            want = gamma_product_degree(matroid, vs, "oi", engine="flag")
            degrees[vs] = want
            if gamma_product_degree(matroid, vs, "mult", engine="flag") != want:
                bad.append((name, cs, "mult"))
                continue
            if gamma_degree_via_localization(matroid, cs) != want:
                bad.append((name, cs, "localization"))
                continue
            if not vs:
                continue
            support = classify_support(matroid, vs)
            j = first_repeat(vs)
            if support.flatly_contiguous and j is not None:
                if eulerian_recursion_degree(matroid, vs, j) != want:
                    bad.append((name, cs, "eulerian"))
            if support.contiguous:
                if matroid.rank_total >= 3:
                    if deletion_contraction_degree(matroid, vs, 0, 0) != want:
                        bad.append((name, cs, "delcon"))
                if cv_via_tutte_convolution(matroid, vs) != want:
                    bad.append((name, cs, "convolution"))
        if matroid.r < 2:
            continue
        max_proper = max(matroid.proper_flat_sizes())
        entries = range(1, matroid.n + 1)
        for ell in range(1, matroid.r):
            for v in itertools.combinations_with_replacement(entries, ell):
                if v[0] != 1 or not classify_support(matroid, v).flatly_contiguous:
                    continue
                for w in itertools.combinations_with_replacement(
                    entries, matroid.r - ell
                ):
                    if set(v) & set(w) or max(w) < max_proper:
                        continue
                    if not classify_support(matroid, w).flatly_contiguous:
                        continue
                    want = degrees[tuple(sorted(v + w))]
                    if two_block_degree(matroid, v, w) != want:
                        bad.append((name, v, w, "two-block"))
    report(7, "six pipelines agree on their shared domains", bad)


def test_criterion_08_tree_expansion():
    bad = []
    pool = [
        build_uniform(2, 4),
        build_uniform(2, 5),
        build_uniform(3, 6),
        build_uniform(4, 6),
        build_boolean(5),
        build_projective_geometry(2, 2),
        build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
    ]
    rng = random.Random(20260819)
    for trial in range(200):
        matroid = pool[rng.randrange(len(pool))]
        length = rng.randint(1, matroid.r)
        vs = tuple(rng.randint(1, matroid.n) for _ in range(length))
        agg = aggregate_by_flag(enumerate_trees(matroid, vs))
        want = {
            flag: w
            for flag, w in expand_gamma_product(matroid, vs).terms.items()
            if w
        }
        if agg != want:
            bad.append((trial, matroid.provenance, vs))
    big = build_uniform(6, 10)
    terms = enumerate_trees(big, (2, 3, 1, 4))
    labels = (3, 1, 4, 2)
    flag_a = (
        mask_of([5]),
        mask_of([3, 5]),
        mask_of([3, 5, 8]),
        mask_of([1, 2, 3, 5, 8]),
    )
    flag_b = (
        mask_of([5]),
        mask_of([0, 5]),
        mask_of([0, 3, 5, 8]),
        mask_of([0, 2, 3, 5, 8]),
    )
    for flag, want in ((flag_a, 2), (flag_b, 1)):
        weights = [w for t, w in terms if t.flats == flag and t.labels == labels]
        if weights != [want]:
            bad.append(("worked flag", flag, weights, want))
    report(8, "tree weights reproduce flag expansions", bad)


def test_criterion_09_log_concavity():
    bad = []
    for name, matroid in sorted(full_catalog().items()):
        if not 2 <= matroid.r <= 4:
            continue
        n = matroid.n
        for cs in compositions(matroid.r - 2, n):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    if not log_concavity_check(matroid, cs, i, j).holds:
                        bad.append((name, cs, i, j))
    report(9, "no log-concavity violations across the catalog", bad)


def test_criterion_10_size_perfect_suite():
    bad = []
    fano = build_projective_geometry(2, 2)
    worked = [gamma_product_degree(fano, v) for v in ((1, 1), (1, 3), (3, 3))]
    if worked != [8, 24, 16]:
        bad.append(("fano worked values", worked))
    geometries = [fano, build_projective_geometry(2, 3), build_projective_geometry(3, 2)]
    for matroid in geometries:
        profile = pmd_profile(matroid)
        for cs in compositions(matroid.r, matroid.r):
            if is_lopsided(cs):
                vs = []
                for size, exp in zip(profile.n_seq, cs):
                    vs.extend([size] * exp)
                if lopsided_degree(matroid, cs) != gamma_product_degree(
                    matroid, tuple(vs)
                ):
                    bad.append((matroid.provenance, cs, "lopsided"))
            for i in range(1, matroid.r + 1):
                if cs[i - 1] >= 2 and not pmd_recurrence_check(matroid, cs, i):
                    bad.append((matroid.provenance, cs, i, "recurrence"))
    for r in range(1, 6):
        for q in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)):
            anchor = prod(
                sum(q ** e for e in range(i)) for i in range(1, r + 1)
            )
            if remixed_eulerian_eval(r, (1,) * r, q) != anchor:
                bad.append(("anchor", r, q))
        boolean = build_boolean(r + 1)
        for cs in compositions(r, r):
            if remixed_eulerian_eval(r, cs, 1) != mixed_eulerian_degree(boolean, cs):
                bad.append(("unit q", r, cs))
    for geometry, q in zip(geometries, (2, 3, 2)):
        r = geometry.r
        for cs in compositions(r, r):
            lhs, rhs, ok = pg_identity_check(geometry, q, cs)
            if not ok:
                bad.append(("geometry identity", r, q, cs, lhs, rhs))
    report(10, "size-perfect closed forms, recurrence, and q-identities", bad)


def test_criterion_11_localization_internals():
    bad = []
    tiny = build_uniform(2, 3)
    if gamma_degree_via_localization(tiny, (1, 0)) != gamma_product_degree(tiny, (1,)):
        bad.append("calibration case")
    for matroid in (
        tiny,
        build_uniform(2, 4),
        build_boolean(4),
        build_projective_geometry(2, 2),
    ):
        if _global_sign(matroid) != (-1) ** matroid.n:
            bad.append(("sign law", matroid.provenance, matroid.n))
    rng = random.Random(20260819)
    for trial in range(100):
        n = rng.randint(1, 4)
        w = list(range(n + 1))
        rng.shuffle(w)
        cuts = sorted(rng.randint(0, n) for _ in range(n))
        cs, prev = [], 0
        for x in cuts:
            cs.append(x - prev)
            prev = x
        cs.append(n - prev)
        if series_constant_term(w, cs) != descent_rule_value(w, cs):
            bad.append((trial, w, cs))
    report(11, "sign law fixed once; series constant terms match descents", bad)
