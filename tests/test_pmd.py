"""Size-perfect matroids: profiles, closed forms, exchange, q-deformation."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from reference import pg_identity_check, remixed_by_exchange

from mixeuler import expansion
from mixeuler.errors import (
    CompositionMismatch,
    NonPrimeQ,
    NotLopsided,
    NotPMD,
    PreconditionViolation,
    RankOutOfRange,
)
from mixeuler.expansion import compositions, gamma_product_degree, mixed_eulerian_degree
from mixeuler.matroid import (
    build_boolean,
    build_from_bases,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
)
from mixeuler.polynomials import UniPoly
from mixeuler.pmd import (
    PmdProfile,
    lopsided_degree,
    pmd_profile,
    pmd_recurrence_check,
    remixed_eulerian_eval,
    remixed_polynomial,
)

FANO_LINES = [
    {0, 1, 2},
    {0, 3, 4},
    {0, 5, 6},
    {1, 3, 5},
    {1, 4, 6},
    {2, 3, 6},
    {2, 4, 5},
]


def build_fano():
    bases = [b for b in combinations(range(7), 3) if set(b) not in FANO_LINES]
    return build_from_bases(7, bases)


def build_parallel():
    # u34 plus an element parallel to 3: rank-1 flats are not all points
    bases = [b for b in combinations(range(5), 3) if not {3, 4} <= set(b)]
    return build_from_bases(5, bases)


def catalog():
    out = {
        "fano": build_fano(),
        "pg23": build_projective_geometry(2, 3),
        "pg32": build_projective_geometry(3, 2),
    }
    for k in range(1, 7):
        out[f"b{k}"] = build_boolean(k)
    for r, n1 in [(2, 4), (2, 5), (2, 7), (3, 5), (3, 6), (4, 6), (4, 7), (5, 8)]:
        out[f"u{r}{n1}"] = build_uniform(r, n1)
    return out


def is_lopsided(c):
    prefix = 0
    for j, x in enumerate(c, start=1):
        prefix += x
        if prefix < j:
            return False
    return True


def bridged_degree(matroid, profile, c):
    v = []
    for size, exp in zip(profile.n_seq, c):
        v.extend([size] * exp)
    return gamma_product_degree(matroid, tuple(v))


class TestProfile:
    def test_fano(self):
        p = pmd_profile(build_fano())
        assert p == PmdProfile((1, 3), (3, 7), Fraction(8))

    def test_boolean_scale_is_one(self):
        p = pmd_profile(build_boolean(4))
        assert p.n_seq == (1, 2, 3)
        assert p.N_seq == (2, 3, 4)
        assert p.V_M == 1

    def test_uniform(self):
        p = pmd_profile(build_uniform(3, 5))
        assert p.n_seq == (1, 2)
        assert p.N_seq == (2, 10)
        assert p.V_M == 6

    def test_projective_scale_is_q_power(self):
        # rank-i flat of a field geometry has 1 + q + ... + q^(i-1) points
        # and the scale collapses to q^(r(r+1)/2)
        p23 = pmd_profile(build_projective_geometry(2, 3))
        assert p23 == PmdProfile((1, 4), (4, 13), Fraction(27))
        p32 = pmd_profile(build_projective_geometry(3, 2))
        assert p32 == PmdProfile((1, 3, 7), (3, 7, 15), Fraction(64))

    def test_rank_one_profile_is_empty(self):
        p = pmd_profile(build_boolean(1))
        assert p.n_seq == () and p.V_M == 1

    def test_mixed_flat_sizes_rejected_with_witness(self):
        sp = build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(NotPMD, match=r"rank 2.*sizes 3 and 2"):
            pmd_profile(sp)

    def test_parallel_elements_rejected(self):
        # one doubled point gives mixed rank-1 sizes, hence a witness pair
        with pytest.raises(NotPMD, match=r"rank 1.*sizes"):
            pmd_profile(build_parallel())
        # doubling every point keeps sizes constant but flats are not points
        doubled = build_from_bases(
            4, [p for p in combinations(range(4), 2) if p not in [(0, 1), (2, 3)]]
        )
        with pytest.raises(NotPMD, match="parallel"):
            pmd_profile(doubled)


class TestLopsided:
    def test_fano_values(self):
        fano = build_fano()
        assert lopsided_degree(fano, (2, 0)) == 8
        assert lopsided_degree(fano, (1, 1)) == 24

    def test_boolean_value(self):
        assert lopsided_degree(build_boolean(4), (2, 1, 0)) == 2

    def test_failing_prefix_rejected(self):
        with pytest.raises(NotLopsided):
            lopsided_degree(build_fano(), (0, 2))
        with pytest.raises(NotLopsided):
            lopsided_degree(build_boolean(4), (1, 0, 2))

    def test_exponent_validation(self):
        fano = build_fano()
        with pytest.raises(CompositionMismatch):
            lopsided_degree(fano, (1, 1, 0))
        with pytest.raises(CompositionMismatch):
            lopsided_degree(fano, (2, -1))
        with pytest.raises(CompositionMismatch):
            lopsided_degree(fano, (2, 1))

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_matches_flag_oracle(self, name):
        matroid = catalog()[name]
        profile = pmd_profile(matroid)
        r = matroid.r
        for c in compositions(r, r):
            if not is_lopsided(c):
                continue
            assert lopsided_degree(matroid, c) == bridged_degree(
                matroid, profile, c
            ), c


class TestRemixed:
    @pytest.mark.parametrize(
        "r,q",
        [(r, q) for r in range(1, 6) for q in (1, 2, 3, Fraction(1, 2), Fraction(5, 7))] + [(6, 2)],
    )
    def test_matches_the_exchange_solve(self, r, q):
        table = remixed_by_exchange(r, q)
        for c in compositions(r, r):
            assert remixed_eulerian_eval(r, c, q) == table[c], c
            assert remixed_polynomial(r, c)(Fraction(q)) == table[c], c

    def test_rank_two_values(self):
        for q in (1, 2, 3, Fraction(1, 2)):
            assert remixed_eulerian_eval(2, (2, 0), q) == 1
            assert remixed_eulerian_eval(2, (1, 1), q) == 1 + Fraction(q)
            assert remixed_eulerian_eval(2, (0, 2), q) == Fraction(q)

    def test_all_ones_anchor(self):
        q = Fraction(2)
        for r in range(1, 6):
            want = math.prod(
                sum(q**j for j in range(i)) for i in range(1, r + 1)
            )
            assert remixed_eulerian_eval(r, (1,) * r, q) == want

    @pytest.mark.parametrize("q", [1, 2, 3, Fraction(1, 2)])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_exchange_residuals_vanish(self, r, q):
        qf = Fraction(q)
        table = {
            c: remixed_eulerian_eval(r, c, q) for c in compositions(r, r)
        }
        relations = 0
        for c, value in table.items():
            for pos in range(r):
                if c[pos] < 2:
                    continue
                left = Fraction(0)
                if pos >= 1:
                    t = list(c)
                    t[pos] -= 1
                    t[pos - 1] += 1
                    left = table[tuple(t)]
                right = Fraction(0)
                if pos + 1 < r:
                    t = list(c)
                    t[pos] -= 1
                    t[pos + 1] += 1
                    right = table[tuple(t)]
                assert (qf + 1) * value == qf * left + right, (c, pos)
                relations += 1
        assert relations > 0 or r == 1

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_q_one_gives_boolean_degrees(self, r):
        boolean = build_boolean(r + 1)
        for c in compositions(r, r):
            assert remixed_eulerian_eval(r, c, 1) == mixed_eulerian_degree(
                boolean, c
            ), c

    @pytest.mark.parametrize("r", range(1, 9))
    def test_polynomial_has_nonnegative_coefficients(self, r):
        # every composition up to r = 6, a seeded sample of 40 above
        comps = list(compositions(r, r))
        if r > 6:
            comps = random.Random(r).sample(comps, 40)
        for c in comps:
            poly = remixed_polynomial(r, c)
            assert 0 <= poly.degree <= math.comb(r, 2), (c, poly)
            assert all(isinstance(x, int) and x >= 0 for x in poly.coeffs), (c, poly)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_whole_table_identities(self, r):
        # Nadeau-Tewari: A_{rev c}(q) = q^C(r,2) A_c(1/q), the table sums to
        # Cat_r [r]_q!, and at q = 1 to r! Cat_r, or to (r+1)^(r-1) once each
        # A_c is divided by the product of the c_i!
        table = {c: remixed_polynomial(r, c) for c in compositions(r, r)}
        top = math.comb(r, 2)
        for c, poly in table.items():
            flipped = table[c[::-1]]
            assert [flipped[k] for k in range(top + 1)] == [poly[top - k] for k in range(top + 1)], c
        catalan = math.comb(2 * r, r) // (r + 1)
        q_factorial = math.prod(UniPoly((1,) * i) for i in range(1, r + 1))
        assert sum(table.values()) == catalan * q_factorial
        at_one = {c: poly(1) for c, poly in table.items()}
        assert sum(at_one.values()) == math.factorial(r) * catalan
        weighted = sum(Fraction(v, math.prod(map(math.factorial, c))) for c, v in at_one.items())
        assert weighted == (r + 1) ** (r - 1)

    def test_values_are_positive(self):
        for c in compositions(4, 4):
            assert remixed_eulerian_eval(4, c, Fraction(1, 2)) > 0

    def test_validation(self):
        with pytest.raises(RankOutOfRange):
            remixed_eulerian_eval(0, (), 2)
        with pytest.raises(PreconditionViolation):
            remixed_eulerian_eval(2, (1, 1), 0)
        with pytest.raises(PreconditionViolation):
            remixed_eulerian_eval(2, (1, 1), Fraction(-1, 2))
        with pytest.raises(CompositionMismatch):
            remixed_eulerian_eval(2, (1, 1, 0), 2)
        with pytest.raises(CompositionMismatch):
            remixed_eulerian_eval(2, (2, 1), 2)


class TestProjectiveIdentity:
    def test_fano_plane_cases(self):
        fano = build_projective_geometry(2, 2)
        assert pg_identity_check(fano, 2, (0, 2)) == (16, 16, True)
        assert pg_identity_check(fano, 2, (1, 1)) == (24, 24, True)
        assert pg_identity_check(fano, 2, (2, 0)) == (8, 8, True)

    @pytest.mark.parametrize("r,q", [(2, 2), (2, 3), (3, 2), (2, 5), (3, 3), (4, 2)])
    def test_holds_across_all_exponents(self, r, q):
        geometry = build_projective_geometry(r, q)
        for c in compositions(r, r):
            lhs, rhs, ok = pg_identity_check(geometry, q, c)
            assert ok and lhs == rhs, (c, lhs, rhs)

    def test_nonprime_rejected(self):
        with pytest.raises(NonPrimeQ):
            build_projective_geometry(2, 4)

    @pytest.mark.parametrize("r,q", [(2, 2), (2, 3), (3, 2), (2, 5), (3, 3), (4, 2)])
    def test_flat_view_degrees_match_the_exchange_solve(self, r, q, monkeypatch):
        # pg_identity_check takes the rank view on both sides; here the
        # degrees walk the geometry's lattice of flats instead
        monkeypatch.setattr(expansion, "_rank_view", lambda *args: None)
        geometry = build_projective_geometry(r, q)
        sizes = pmd_profile(geometry).n_seq
        table = remixed_by_exchange(r, q)
        for c in compositions(r, r):
            v = [size for size, exp in zip(sizes, c) for _ in range(exp)]
            assert gamma_product_degree(geometry, v) == q ** math.comb(r + 1, 2) * table[c], c
        assert geometry._degree_memos["oi"][0].top == geometry.full_mask  # the flat view


@pytest.mark.parametrize("r,q", [(2, 5), (3, 3), (4, 2)])
def test_lopsided_matches_the_dp_on_larger_geometries(r, q):
    geometry = build_projective_geometry(r, q)
    profile = pmd_profile(geometry)
    lopsided = [c for c in compositions(r, r) if is_lopsided(c)]
    assert lopsided
    for c in lopsided:
        assert lopsided_degree(geometry, c) == bridged_degree(geometry, profile, c), c


class TestExchangeRelation:
    def test_fano_low_slot(self):
        # 3*8 == 1*24 + 2*0, the down-move leaving the index range
        assert pmd_recurrence_check(build_fano(), (2, 0), 1)

    def test_fano_high_slot(self):
        # 6*16 == 2*0 + 4*24, the up-move leaving the index range
        assert pmd_recurrence_check(build_fano(), (0, 2), 2)

    def test_boolean(self):
        assert pmd_recurrence_check(build_boolean(4), (3, 0, 0), 1)

    def test_validation(self):
        fano = build_fano()
        with pytest.raises(PreconditionViolation):
            pmd_recurrence_check(fano, (1, 1), 1)
        with pytest.raises(PreconditionViolation):
            pmd_recurrence_check(fano, (2, 0), 3)
        with pytest.raises(CompositionMismatch):
            pmd_recurrence_check(fano, (2, 0, 0), 1)
        with pytest.raises(NotPMD):
            pmd_recurrence_check(
                build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]), (2, 0, 0), 1
            )

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_holds_everywhere(self, name):
        matroid = catalog()[name]
        r = matroid.r
        for c in compositions(r, r):
            for i in range(1, r + 1):
                if c[i - 1] >= 2:
                    assert pmd_recurrence_check(matroid, c, i), (c, i)


class TestRankThreeClosedForms:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_boolean(3),
            lambda: build_uniform(3, 4),
            lambda: build_uniform(3, 5),
            lambda: build_uniform(3, 7),
            build_fano,
            lambda: build_projective_geometry(2, 3),
        ],
    )
    def test_degrees_match_size_formulas(self, build):
        matroid = build()
        n1, n2 = pmd_profile(matroid).n_seq
        top = matroid.m
        assert gamma_product_degree(matroid, (n1, n1)) == Fraction(
            (top - n1) * (top - n2) * n1, n2
        )
        assert gamma_product_degree(matroid, (n1, n2)) == (top - n1) * (
            top - n2
        )
        assert gamma_product_degree(matroid, (n2, n2)) == (top - n2) ** 2
