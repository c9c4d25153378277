"""Tutte and characteristic polynomials, plus the degree identities they feed."""

import gc
import itertools
import weakref
from math import comb

import pytest

from mixeuler import (
    build_boolean,
    build_from_bases,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
)
from mixeuler.expansion import count_initial_descending_flags, gamma_product_degree
from mixeuler.polynomials import PolyXY, UniPoly
from mixeuler.errors import DivisionNotExact, VOutOfRange
from mixeuler.tutte import characteristic_data, tutte_polynomial

FANO_LINES = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]


def build_fano():
    bases = [b for b in itertools.combinations(range(7), 3) if set(b) not in FANO_LINES]
    return build_from_bases(7, bases)


def catalog():
    return {
        "u11": build_uniform(1, 1),
        "u23": build_uniform(2, 3),
        "u34": build_uniform(3, 4),
        "u35": build_uniform(3, 5),
        "b4": build_boolean(4),
        "fano": build_fano(),
        "pg23": build_projective_geometry(2, 3),
        "sp362": build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
        "parallel": build_from_bases(
            5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)]
        ),
    }


# ---------------------------------------------------------------------------
# Tutte polynomial


def test_single_coloop():
    assert tutte_polynomial(build_uniform(1, 1)) == PolyXY.x()


def test_u34_closed_form():
    x, y = PolyXY.x(), PolyXY.y()
    assert tutte_polynomial(build_uniform(3, 4)) == x**3 + x**2 + x + y


def test_u34_rank_generating_specialization():
    assert tutte_polynomial(build_uniform(3, 4)).specialize_y(1) == UniPoly((3, 1))


def test_fano_spanning_counts():
    # spanning sets by size: 28, 35, 21, 7, 1
    assert tutte_polynomial(build_fano()).specialize_y(1) == UniPoly((8, 10, 6, 3, 1))


def test_uniform_rank_generating_formula():
    for rank, size in [(2, 4), (3, 5), (4, 6), (2, 6)]:
        m = build_uniform(rank, size)
        n, r = m.n, m.r
        want = UniPoly(tuple(comb(n - j, r) for j in range(n - r + 1)))
        assert tutte_polynomial(m).specialize_y(1) == want


def test_methods_agree():
    for name, m in catalog().items():
        a = tutte_polynomial(m, method="corank-nullity")
        b = tutte_polynomial(m, method="deletion-contraction")
        assert a == b, name


def test_deletion_contraction_leaves_no_cycle():
    # the recursion is a module-level function, so the matroid dies at del
    # without the cycle collector
    gc.collect()
    gc.disable()
    try:
        m = build_projective_geometry(2, 3)
        t = tutte_polynomial(m, method="deletion-contraction")
        assert t == tutte_polynomial(m)
        alive = weakref.ref(m)
        del m
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unknown_method():
    with pytest.raises(VOutOfRange):
        tutte_polynomial(build_uniform(2, 3), method="magic")


def test_basis_count_specialization():
    for name, m in catalog().items():
        k = m.rank_total
        n_bases = sum(
            1
            for sub in itertools.combinations(range(m.m), k)
            if m.rank(sum(1 << i for i in sub)) == k
        )
        assert tutte_polynomial(m).substitute(1, 1) == n_bases, name


def test_sparse_paving_shift():
    # dropping circuit-hyperplanes only moves the constant term of T(1, y)
    u = tutte_polynomial(build_uniform(3, 6)).specialize_y(1)
    for chs in [[(0, 1, 2)], [(0, 1, 2), (3, 4, 5)]]:
        m = build_sparse_paving(3, 6, chs)
        got = tutte_polynomial(m).specialize_y(1)
        assert got == u - len(chs)


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_fano_char():
    data = characteristic_data(build_fano())
    lam = UniPoly.variable()
    assert data.chi_reduced == lam**2 - 6 * lam + 8
    assert data.mu == (1, 6, 8)


def test_u23_char():
    data = characteristic_data(build_uniform(2, 3))
    assert data.mu == (1, 2)
    assert data.chi == UniPoly.variable() ** 2 - 3 * UniPoly.variable() + 2


def test_boolean_char_binomials():
    data = characteristic_data(build_boolean(4))
    lam = UniPoly.variable()
    assert data.chi_reduced == (lam - 1) ** 3
    assert data.mu == tuple(comb(3, k) for k in range(4))


def test_char_reduced_divides():
    lam = UniPoly.variable()
    for name, m in catalog().items():
        data = characteristic_data(m)
        assert data.chi == data.chi_reduced * (lam - 1), name
        assert data.mu[0] == 1, name
        assert len(data.mu) == m.r + 1, name


def test_char_at_one_vanishes():
    for name, m in catalog().items():
        assert characteristic_data(m).chi(1) == 0, name


def test_divide_exact_refuses_remainder():
    lam = UniPoly.variable()
    with pytest.raises(DivisionNotExact):
        (lam**2 + 1).divide_exact(lam - 1)
    with pytest.raises(DivisionNotExact):
        (lam**2 + 1) // (lam - 1)
    assert (lam**2 - 1) // (lam - 1) == lam + 1


def test_unipoly_order_puts_q_above_every_integer():
    lam = UniPoly.variable()
    polys = [UniPoly(c) for c in ((), (-2,), (3,), (0, 1), (5, 1), (0, -1), (1, 0, 2), (-9, 0, 2))]
    for a, b in itertools.product(polys, repeat=2):
        assert (a == b) == (a <= b <= a)
        assert (a < b) == (b > a) == (a <= b and a != b)
        assert (a >= b) == (not a < b)
    for k in (-3, 0, 7, 10**6):
        assert lam > k and k < lam and -lam < k
        assert UniPoly.constant(k) == k and UniPoly.constant(k) <= k <= UniPoly.constant(k)
        assert (UniPoly.constant(k) < 1) == (k < 1)
    assert max(0, lam - 5) == lam - 5 and max(0, 5 - lam) == 0
    q_int = [UniPoly()]
    for _ in range(6):
        q_int.append(q_int[-1] * lam + 1)
    for i, k in itertools.product(range(len(q_int)), repeat=2):
        assert (q_int[i] < q_int[k]) == (i < k), (i, k)
        assert (q_int[i] == q_int[k]) == (i == k), (i, k)


def test_unipoly_hash_agrees_with_equality():
    assert len({UniPoly.constant(3), 3}) == 1
    assert len({UniPoly(), 0}) == 1
    lam = UniPoly.variable()
    sample = [0, 1, -2, 3, 10**20, UniPoly(), UniPoly((0, 0)), UniPoly.constant(-2)]
    sample += [UniPoly.constant(3), UniPoly((3, 0)), lam, lam + 1, lam * lam + 1, 1 + lam]
    for a, b in itertools.product(sample, repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a, b)


@pytest.mark.parametrize(
    "coeffs,var,text",
    [
        ((), "y", "0"),
        ((0, 0), "t", "0"),
        ((5,), "y", "5"),
        ((-1,), "t", "-1"),
        ((0, 1), "y", "y"),
        ((0, -1), "t", "-t"),
        ((1, -1, 1), "t", "t^2 - t + 1"),
        ((60, 24, 6), "y", "6*y^2 + 24*y + 60"),
        ((-8, 14, -7, 1), "t", "t^3 - 7*t^2 + 14*t - 8"),
        ((3, 0, -2), "t", "-2*t^2 + 3"),
        ((0, 0, -1), "y", "-y^2"),
    ],
)
def test_unipoly_format(coeffs, var, text):
    assert UniPoly(coeffs).format(var) == text


@pytest.mark.parametrize(
    "coeffs,text",
    [
        ({}, "0"),
        ({(0, 0): 0}, "0"),
        ({(0, 0): 7}, "7"),
        ({(0, 0): -1}, "-1"),
        ({(1, 1): 1}, "x*y"),
        ({(1, 1): -1}, "-x*y"),
        ({(2, 3): 4}, "4*x^2*y^3"),
        ({(2, 0): 1, (1, 1): -3, (0, 0): 1}, "x^2 - 3*x*y + 1"),
        ({(0, 2): 1, (1, 1): 2, (2, 0): 1}, "x^2 + 2*x*y + y^2"),
        ({(0, 2): -1, (1, 0): 2, (0, 1): -1}, "-y^2 + 2*x - y"),
    ],
)
def test_polyxy_format(coeffs, text):
    assert PolyXY(coeffs).format() == text


def test_repr_uses_format():
    assert repr(UniPoly((60, 24, 6))) == "UniPoly(6*y^2 + 24*y + 60)"
    assert repr(tutte_polynomial(build_uniform(2, 4))) == "PolyXY(x^2 + y^2 + 2*x + 2*y)"


# ---------------------------------------------------------------------------
# degree identities


@pytest.mark.parametrize("convention", ["oi", "mult"])
def test_mu_equals_mixed_degrees(convention):
    for name, m in catalog().items():
        if m.r < 1:
            continue
        mu = characteristic_data(m).mu
        n, r = m.n, m.r
        for k in range(r + 1):
            v = (1,) * k + (n,) * (r - k)
            got = gamma_product_degree(m, v, convention=convention)
            assert got == mu[k], (name, k)


def test_mu_equals_descending_flag_counts():
    for name, m in catalog().items():
        if m.r < 1:
            continue
        mu = characteristic_data(m).mu
        for k in range(m.r + 1):
            assert count_initial_descending_flags(m, k) == mu[k], (name, k)


def test_top_mu_is_tutte_at_one_zero():
    for name, m in catalog().items():
        t = tutte_polynomial(m)
        assert t.substitute(1, 0) == characteristic_data(m).mu[-1], name


# ---------------------------------------------------------------------------
# past 20 elements: the subsets are counted on the lattice of flats


@pytest.fixture(scope="module")
def pg42():
    return build_projective_geometry(4, 2)  # 31 points, rank 5


@pytest.mark.parametrize("r,q", [(4, 2), (2, 5), (2, 7), (3, 3)], ids=str)
def test_projective_mu_closed_form(r, q, pg42):
    # chi_reduced of PG(r, q) is the product of (t - q^i) over i = 1..r
    m = pg42 if (r, q) == (4, 2) else build_projective_geometry(r, q)
    lam = UniPoly.variable()
    want = UniPoly.constant(1)
    for i in range(1, r + 1):
        want = want * (lam - q**i)
    data = characteristic_data(m)
    assert data.chi_reduced == want
    assert data.mu == tuple(abs(want[r - k]) for k in range(r + 1))


@pytest.mark.parametrize("convention", ["oi", "mult"])
def test_pg42_mu_equals_degrees_and_descending_flags(convention, pg42):
    mu = characteristic_data(pg42).mu
    n, r = pg42.n, pg42.r
    for k in range(r + 1):
        assert gamma_product_degree(pg42, (1,) * k + (n,) * (r - k), convention) == mu[k], k
        assert count_initial_descending_flags(pg42, k) == mu[k], k


def test_pg25_basis_and_subset_counts():
    t = tutte_polynomial(build_projective_geometry(2, 5))
    # bases: triples of the 31 points that do not lie on one of the 31 lines of 6
    assert t.substitute(1, 1) == comb(31, 3) - 31 * comb(6, 3) == 3875
    assert t.substitute(2, 2) == 2**31
