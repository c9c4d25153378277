"""The interval DP against the flag oracle, localization and the weight formulas."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod
from operator import mul

import pytest

from mixeuler import (
    Matroid,
    bits_of,
    build_boolean,
    build_from_flats,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
    gamma_degree_via_localization,
    largest_elements_mask,
)
from mixeuler import expansion
from mixeuler.catalog import named_catalog
from mixeuler.errors import InternalError, VOutOfRange
from mixeuler.expansion import (
    CONVENTIONS,
    composition_to_indices,
    compositions,
    insertion_weight,
    mixed_eulerian_degree,
    pvol,
    weight_scale,
)

from reference import flats_between_scan, mult_weight, oi_weight
from seeded import SPARSE_PAVING_SEEDS, random_sparse_paving, seeded_sparse_paving
from test_matroid import SMALL_CATALOG, fresh


def assert_dp_matches_flag(m, engine="auto"):
    for c in compositions(m.r, m.n):
        for conv in ("oi", "mult"):
            want = mixed_eulerian_degree(m, c, conv, "flag")
            assert mixed_eulerian_degree(m, c, conv, engine) == want, (m, c, conv)


def test_flat_view_matches_flag_on_catalog():
    small = [
        m
        for m in named_catalog().values()
        if m.m <= 9 and m.level_sizes() is None
    ]
    assert len(small) == 2  # the two relaxations of U(3,6); fano takes the rank view
    for m in small:
        assert_dp_matches_flag(m)


@pytest.mark.parametrize("m", [build_boolean(5), build_uniform(3, 6)], ids=repr)
def test_rank_view_matches_flag(m, rank_view_only):
    assert_dp_matches_flag(m)


@pytest.mark.parametrize("seed", SPARSE_PAVING_SEEDS)
def test_random_sparse_paving_dp_flag_localization_agree(seed):
    m = random_sparse_paving(seed)
    assert m.m <= 8 and m.level_sizes() is None
    for c in compositions(m.r, m.n):
        want = gamma_degree_via_localization(m, c)
        for conv in ("oi", "mult"):
            assert mixed_eulerian_degree(m, c, conv) == want, (seed, c, conv)
            assert mixed_eulerian_degree(m, c, conv, "flag") == want, (seed, c, conv)


def flag_loop_pvol(m, convention):
    """(gamma_1 + ... + gamma_n)^r expanded term by term over flags.

    Each step inserts one flat into any gap of each flag, weighted by the sum
    over every class index that fits the gap, from the reference formulas.
    """
    full = m.full_mask
    terms = {(): Fraction(1)}
    for _ in range(m.r):
        new = {}
        for flag, w in terms.items():
            chain = (0,) + flag + (full,)
            for idx in range(len(flag) + 1):
                lo, hi = chain[idx], chain[idx + 1]
                u = hi & ~lo
                lo_size, hi_size = lo.bit_count(), hi.bit_count()
                for g in m.flats_strictly_between(lo, hi):
                    wt = 0
                    for val in range(lo_size + 1, hi_size):
                        if convention == "oi":
                            t = largest_elements_mask(u, hi_size - val)
                            wt += oi_weight(g & ~lo, t, u)
                        else:
                            s = (g & ~lo).bit_count()
                            wt += mult_weight(s, val - lo_size, hi_size - lo_size)
                    if wt:
                        nf = flag[:idx] + (g,) + flag[idx:]
                        new[nf] = new.get(nf, 0) + w * wt
        terms = new
    return sum(terms.values())


@pytest.mark.parametrize(
    "m",
    [
        build_projective_geometry(2, 2),
        build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]),
        build_uniform(3, 5),
        build_boolean(4),
        random_sparse_paving(SPARSE_PAVING_SEEDS[0]),
    ],
    ids=repr,
)
def test_pvol_matches_flag_loop(m):
    for conv in ("oi", "mult"):
        assert pvol(m, conv) == flag_loop_pvol(m, conv), conv


def test_pvol_engine_is_checked():
    fano = build_projective_geometry(2, 2)
    assert pvol(fano) == 378
    with pytest.raises(VOutOfRange):
        pvol(fano, engine="sizes")
    with pytest.raises(VOutOfRange):
        pvol(fano, engine="bogus")
    with pytest.raises(VOutOfRange):
        mixed_eulerian_degree(fano, (1, 1, 0, 0, 0, 0), engine="bogus")


def test_insertion_weight_matches_reference_formulas():
    m = build_projective_geometry(2, 2)
    scale = lcm(*range(1, m.m + 1))
    flats = [f for level in m.flats_by_rank for f in level]
    cases = 0
    for lo in flats:
        for hi in flats:
            if lo & hi != lo or lo == hi:
                continue
            u = hi & ~lo
            lo_size, hi_size = lo.bit_count(), hi.bit_count()
            for g in m.flats_strictly_between(lo, hi):
                s = (g & ~lo).bit_count()
                for val in range(lo_size + 1, hi_size):
                    t = largest_elements_mask(u, hi_size - val)
                    got = insertion_weight(lo, hi, g, val, "oi", 1)
                    assert got == oi_weight(g & ~lo, t, u)
                    got = insertion_weight(lo, hi, g, val, "mult", scale)
                    want = scale * mult_weight(s, val - lo_size, hi_size - lo_size)
                    assert got == want and isinstance(got, int)
                    cases += 1
    assert cases > 100


@pytest.mark.parametrize("engine", ["auto", "flag"])
def test_inexact_final_division_raises(monkeypatch, engine):
    # every flat weighted 1: the scaled sum is a flag count far below L^r,
    # so the division by L^r leaves a remainder. The flag oracle weighs each
    # flat with insertion_weight; the auto engine sets each gap up with
    # _gap_weight, which its rank view calls on one flat per rank and
    # multiplies by the number of flats. The matroid must be built after the
    # patch: the auto engine keeps its view on the matroid at its first query.
    if engine == "auto":
        monkeypatch.setattr(expansion, "_gap_weight", lambda *args: lambda g: 1)
    else:
        monkeypatch.setattr(expansion, "insertion_weight", lambda *args, **kwargs: 1)
    fano = build_projective_geometry(2, 2)
    with pytest.raises(InternalError):
        expansion.gamma_product_degree(fano, (1, 2), "mult", engine)


def test_gap_weight_total_is_the_sum_over_class_indices():
    """pvol's closed form against insertion_weight summed val by val."""
    cases = 0
    for m in named_catalog().values():
        if m.m > 9:
            continue
        flats = [f for level in m.flats_by_rank for f in level]
        for conv in CONVENTIONS:
            scale = weight_scale(m.m, conv)
            for lo in flats:
                for hi in flats:
                    if lo & hi != lo or lo == hi:
                        continue
                    vals = range(lo.bit_count() + 1, hi.bit_count())
                    for g in m.flats_strictly_between(lo, hi):
                        want = sum(insertion_weight(lo, hi, g, val, conv, scale) for val in vals)
                        assert expansion._gap_weight_total(lo, hi, g, conv, scale) == want
                        cases += 1
    assert cases > 10_000


@pytest.mark.parametrize(
    "m",
    [build_boolean(6), build_uniform(4, 8), build_projective_geometry(3, 2), build_projective_geometry(2, 3)],
    ids=repr,
)
def test_rank_view_total_is_the_sum_over_class_indices(m):
    sizes = m.level_sizes()
    for conv in CONVENTIONS:
        view = expansion._rank_view(sizes, conv, weight_scale(m.m, conv))
        nodes = range(m.rank_total + 1)
        for lo in nodes:
            for hi in nodes:
                for g in view.between(lo, hi):
                    vals = range(sizes[lo] + 1, sizes[hi])
                    want = sum(view.weight(lo, hi, val)(g) for val in vals)
                    assert view.total(lo, hi, g) == want, (conv, lo, hi, g)


# -- the rank view on matroids with one flat size per rank ------------------------


def doubled(m):
    """m with every element x replaced by the parallel pair 2x, 2x + 1."""
    levels = [[[e for x in bits_of(f) for e in (2 * x, 2 * x + 1)] for f in level] for level in m.flats_by_rank]
    return build_from_flats(2 * m.m, levels)


def table_kind_sparse_paving(size):
    """Rank 4 on size elements with three circuit-hyperplanes, as in the table benchmark."""
    chosen = []
    for cand in combinations(range(size), 4):
        if all(len(set(cand) & set(other)) <= 2 for other in chosen):
            chosen.append(cand)
    return build_sparse_paving(4, size, chosen[:3])


NOT_RANK_UNIFORM = ("sp361", "sp362")


def rank_view_cases():
    """Every catalog matroid with one flat size per rank, larger geometries and
    two matroids with doubled points, by name."""
    named = [(name, m) for name, m in named_catalog().items() if name not in NOT_RANK_UNIFORM]
    named += [
        ("pg:2,5", build_projective_geometry(2, 5)),
        ("pg:3,3", build_projective_geometry(3, 3)),
        ("doubled u34", doubled(build_uniform(3, 4))),
        ("doubled fano", doubled(build_projective_geometry(2, 2))),
    ]
    return [pytest.param(m, id=name) for name, m in named]


@pytest.mark.parametrize("m", rank_view_cases())
def test_rank_view_is_picked(m, rank_view_only):
    m = Matroid(m.m, m._cover_step, m.provenance)
    assert m.level_sizes() is not None
    for conv in CONVENTIONS:
        mixed_eulerian_degree(m, next(compositions(m.r, m.n)), conv)
        view = m._degree_memos[conv][0]
        assert (view.bottom, view.top) == (0, m.rank_total)
        sizes = m.level_sizes()
        assert sizes[view.top] == m.m
        assert view.levels(view.bottom, view.top) == tuple(((k,), (sizes[k],)) for k in range(1, view.top))


def test_doubled_points_are_not_simple():
    m = doubled(build_uniform(3, 4))
    assert m.level_sizes() == (0, 2, 4, 8)
    assert [len(level) for level in m.flats_by_rank] == [1, 4, 6, 1]


@pytest.mark.parametrize("size", [9, 10])
def test_flat_view_is_picked_on_sparse_paving(monkeypatch, size):
    picked = []

    def flat_view(*args):
        picked.append(args[1])
        return flat(*args)

    flat = expansion._flat_view
    monkeypatch.setattr(expansion, "_flat_view", flat_view)
    m = table_kind_sparse_paving(size)
    assert m.level_sizes() is None
    for conv in CONVENTIONS:
        mixed_eulerian_degree(m, next(compositions(m.r, m.n)), conv)
    assert picked == list(CONVENTIONS)


def all_degrees(m, convention, engine="auto"):
    """Every A_c(m) under convention, then pvol."""
    cs = compositions(m.r, m.n)
    return [mixed_eulerian_degree(m, c, convention, engine) for c in cs] + [pvol(m, convention, engine)]


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("m", rank_view_cases())
def test_rank_view_matches_flat_view_and_flag(m, convention, monkeypatch):
    by_rank = all_degrees(Matroid(m.m, m._cover_step, m.provenance), convention)
    with monkeypatch.context() as patch:
        patch.setattr(expansion, "_rank_view", lambda *args: None)
        by_flat = all_degrees(Matroid(m.m, m._cover_step, m.provenance), convention)
    assert by_rank == by_flat
    if m.m <= 15:
        # pvol is the multinomial-weighted sum of the degrees
        cs = list(compositions(m.r, m.n))
        by_flag = [mixed_eulerian_degree(m, c, convention, "flag") for c in cs]
        multinomials = [factorial(m.r) // prod(map(factorial, c)) for c in cs]
        assert by_rank == by_flag + [sum(map(mul, multinomials, by_flag))]


@pytest.mark.parametrize(
    "m",
    [build_projective_geometry(2, 3), build_projective_geometry(3, 2), build_uniform(4, 7), doubled(build_uniform(3, 4))],
    ids=repr,
)
def test_rank_view_weights_sum_the_flat_weights(m):
    """Each node's weight and total are those of its flats, on every interval."""
    rank = m.rank_of_flat
    flats = [f for level in m.flats_by_rank for f in level]
    for conv in CONVENTIONS:
        scale = weight_scale(m.m, conv)
        view = expansion._rank_view(m.level_sizes(), conv, scale)
        for lo in flats:
            for hi in flats:
                if lo & hi != lo or lo == hi:
                    continue
                a, b = rank(lo), rank(hi)
                inside = m.flats_strictly_between(lo, hi)
                for k in view.between(a, b):
                    level = [g for g in inside if rank(g) == k]
                    for val in range(lo.bit_count() + 1, hi.bit_count()):
                        want = sum(insertion_weight(lo, hi, g, val, conv, scale) for g in level)
                        assert view.weight(a, b, val)(k) == want, (conv, lo, hi, k, val)
                    want = sum(expansion._gap_weight_total(lo, hi, g, conv, scale) for g in level)
                    assert view.total(a, b, k) == want, (conv, lo, hi, k)


# -- the per-gap weights the DP sets up, against insertion_weight ---------------------


def flat_gap_cases():
    # b1 has no flat strictly inside an interval
    named = [(name, m) for name, m in sorted(named_catalog().items()) if 2 <= m.m <= 9]
    named += [
        ("sparse paving on 9", seeded_sparse_paving(9, 4, 20241101, 3)),
        ("sparse paving on 8", seeded_sparse_paving(8, 3, 20241103)),
    ]
    return [pytest.param(m, id=name) for name, m in named]


@pytest.mark.parametrize("m", flat_gap_cases())
def test_flat_view_gap_weights_match_insertion_weight(m):
    """The flat view's weight(lo, hi, val), called on a flat g, is
    insertion_weight(lo, hi, g, val) for every pair of nested flats, every
    flat strictly between them and every |lo| < val < |hi|."""
    flats = [f for level in m.flats_by_rank for f in level]
    cases = 0
    for conv in CONVENTIONS:
        scale = weight_scale(m.m, conv)
        weight = expansion._flat_view(m, conv, scale).weight
        for lo in flats:
            for hi in flats:
                if lo & hi != lo or lo == hi:
                    continue
                inside = m.flats_strictly_between(lo, hi)
                for val in range(lo.bit_count() + 1, hi.bit_count()):
                    gap = weight(lo, hi, val)
                    for g in inside:
                        assert gap(g) == insertion_weight(lo, hi, g, val, conv, scale), (conv, lo, hi, g, val)
                        cases += 1
    assert cases


@pytest.mark.parametrize(
    "m",
    [build_projective_geometry(2, 2), build_projective_geometry(3, 2), build_uniform(4, 8), build_boolean(5)],
    ids=["pg:2,2", "pg:3,2", "uniform:4,8", "boolean:5"],
)
def test_rank_view_gap_weights_sum_insertion_weight(m):
    """Each (a, b, val) entry of the rank view's gap memo holds, for every
    rank k strictly between, the sum of insertion_weight over the rank-k
    flats of an interval [lo, hi] built with ranks a and b; a second call
    returns the stored entry."""
    rank, sizes, top = m.rank_of_flat, m.level_sizes(), m.rank_total
    for conv in CONVENTIONS:
        scale = weight_scale(m.m, conv)
        view = expansion._rank_view(sizes, conv, scale)
        for a in range(top + 1):
            lo = m.flats_by_rank[a][-1]
            for b in range(a + 1, top + 1):
                hi = next(f for f in m.flats_by_rank[b] if f & lo == lo)
                inside = m.flats_strictly_between(lo, hi)
                for val in range(sizes[a] + 1, sizes[b]):
                    gap = view.weight(a, b, val)
                    assert view.weight(a, b, val) is gap is view.gaps[a, b, val]
                    assert set(gap.__self__) == set(range(a + 1, b))
                    for k in range(a + 1, b):
                        want = sum(insertion_weight(lo, hi, g, val, conv, scale) for g in inside if rank(g) == k)
                        assert gap(k) == want, (conv, a, b, k, val)
        assert len(view.gaps) == sum(max(0, sizes[b] - sizes[a] - 1) for b in range(top + 1) for a in range(b))


# -- Boolean intervals, answered on the rank view of B_R ----------------------------


def is_boolean(m, lo, hi):
    """Every set between lo and hi is a flat: hi - lo is free over lo."""
    return m.rank_of_flat(hi) - m.rank_of_flat(lo) == hi.bit_count() - lo.bit_count()


def point_contraction_of_a_deletion():
    """pg:3,2 less one point, contracted at another: 13 elements, rank 3, and
    seven points, the one on the deleted point's line of size 1, six of size 2."""
    deletion = build_projective_geometry(3, 2).delete_element(0)[0]
    return deletion.contraction(deletion.flats_by_rank[1][0])[0]


def boolean_cases():
    named = [
        (f"sparse paving rank {rank} on {size}", seeded_sparse_paving(size, rank, 20241101))
        for rank, size in ((3, 7), (3, 10), (4, 9), (4, 10), (5, 8))
    ]
    named.append(("pg:3,2 less a point, over a point", point_contraction_of_a_deletion()))
    return [pytest.param(m, id=name) for name, m in named]


def test_the_minor_is_not_simple():
    m = point_contraction_of_a_deletion()
    assert (m.m, m.rank_total, m.level_sizes()) == (13, 3, None)
    assert sorted(p.bit_count() for p in m.flats_by_rank[1]) == [1] + [2] * 6


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("m", boolean_cases())
def test_boolean_intervals_match_flag(m, convention):
    """Every degree and pvol of a flat view that answers its Boolean
    intervals on B_R's rank view, against the flag oracle."""
    m = fresh(m)
    assert m.level_sizes() is None
    assert all_degrees(m, convention) == all_degrees(m, convention, "flag")
    # on a sparse paving matroid [0, g] is Boolean for each hyperplane g that
    # is no circuit and takes r - 1 >= 1 classes; the minor's one Boolean
    # interval, [0, p] for its point of size 1, takes none
    boolean_memo = m._degree_memos[convention][0].boolean[1]
    assert bool(boolean_memo) == (m.provenance == "sparse")


def test_boolean_intervals_keep_no_levels():
    """The auto DP reads no level of a Boolean interval, on the table's
    sparse paving matroid on 10 elements, where most intervals are Boolean."""
    m = table_kind_sparse_paving(10)
    for conv in CONVENTIONS:
        for c in compositions(m.r, m.n):
            mixed_eulerian_degree(m, c, conv)
    assert m._levels
    assert not [key for key in m._levels if is_boolean(m, *key)]
    assert [key for key in m._degree_memos["oi"][1] if is_boolean(m, *key[:2])]


# -- the levels the DP walks and the windows it cuts from them ---------------------


def level_cases():
    named = sorted(SMALL_CATALOG.items())
    named += [(f"sparse paving on {size}", seeded_sparse_paving(size, 4, 20241101, 3)) for size in (9, 10)]
    return [pytest.param(m, id=name) for name, m in named]


@pytest.mark.parametrize("m", level_cases())
def test_levels_match_the_scan(m):
    """On every interval, the flat view's levels hold the flats strictly
    inside, one rank per level from the lowest, each sorted by size; the
    rank view's hold one node per rank inside, with its flats' size."""
    m = fresh(m)
    rank = m.rank_of_flat
    sizes = m.level_sizes()
    flat_view = expansion._flat_view(m, "oi", 1)
    rank_view = expansion._rank_view(sizes, "oi", 1)  # None unless one size per rank
    flats = [f for level in m.flats_by_rank for f in level]
    intervals = 0
    for lo in flats:
        for hi in flats:
            if lo & hi != lo or lo == hi:
                continue
            want = flats_between_scan(m, lo, hi)
            inner = range(rank(lo) + 1, rank(hi))
            levels = flat_view.levels(lo, hi)
            assert len(levels) == len(inner)
            assert sorted(g for nodes, _ in levels for g in nodes) == sorted(want)
            for k, (nodes, node_sizes) in zip(inner, levels):
                assert all(rank(g) == k for g in nodes)
                assert node_sizes == tuple(g.bit_count() for g in nodes)
                assert list(node_sizes) == sorted(node_sizes)
            if rank_view is not None:
                levels = rank_view.levels(rank(lo), rank(hi))
                assert levels == tuple(((k,), (sizes[k],)) for k in inner)
                assert {k for (nodes, _) in levels for k in nodes} == {rank(g) for g in want}
                assert all(g.bit_count() == sizes[rank(g)] for g in want)
            intervals += 1
    assert intervals >= len(flats) - 1  # at least (0, f) or (f, full) for each f


def windowed(m, memo):
    """(lo, hi, vs, g) for every flat g inside each interval the DP computed
    whose size lies strictly between the classes around its rank, by scan."""
    rank = m.rank_of_flat
    want = Counter()
    for lo, hi, vs in memo:
        rest = vs[1:]
        for g in flats_between_scan(m, lo, hi):
            a, size = rank(g) - rank(lo) - 1, g.bit_count()
            if (a == 0 or rest[a - 1] < size) and (a == len(rest) or size < rest[a]):
                want[lo, hi, vs, g] += 1
    return want


@pytest.mark.parametrize(
    "m",
    [build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)]), table_kind_sparse_paving(9)],
    ids=["two 3-point lines on 6", "rank 4 on 9"],
)
def test_dp_asks_weights_only_inside_each_size_window(m, monkeypatch):
    """Each interval the pure flat DP computes (no B_R view, as _rank_view
    gives None) sets its gap up once, and asks the result once for the
    weight of each flat inside its windows and of no other. Degrees cannot
    show an off-by-one at a window's edge: a flat whose size equals a
    neighbouring class gets weight 0 in its sub-interval. So the gaps set up
    and the weights asked are counted, each with the product it was asked
    under (the innermost _deg call). With the B_R view, a Boolean interval
    asks the flat view for no gap and no weight at all."""
    products = []
    deg = expansion._deg

    def traced_deg(view, memo, lo, hi, vs):
        products.append(vs)
        try:
            return deg(view, memo, lo, hi, vs)
        finally:
            products.pop()

    monkeypatch.setattr(expansion, "_deg", traced_deg)
    full = m.full_mask
    for conv in CONVENTIONS:
        scale = weight_scale(m.m, conv)
        with monkeypatch.context() as patch:
            patch.setattr(expansion, "_rank_view", lambda *args: None)
            view = expansion._flat_view(m, conv, scale)
        assert view.boolean is None
        delegating = expansion._flat_view(m, conv, scale)
        assert delegating.boolean is not None
        asked, gaps = Counter(), Counter()

        def weight(lo, hi, val):
            weigh, vs = view.weight(lo, hi, val), products[-1]
            gaps[lo, hi, vs] += 1

            def counted(g):
                asked[lo, hi, vs, g] += 1
                return weigh(g)

            return counted

        counted = view._replace(weight=weight)
        boolean_intervals = 0
        for c in compositions(m.r, m.n):
            vs = composition_to_indices(c)
            asked.clear()
            gaps.clear()
            memo = {}
            got = traced_deg(counted, memo, 0, full, vs)
            assert asked == windowed(m, memo), (conv, c)
            assert gaps == Counter(memo.keys()), (conv, c)
            assert got == sum(expansion._expand(m, vs, conv, scale).values()), (conv, c)
            if m.m == 6 and vs in ((1, 1), (1, 2)):
                # by hand: the 6 points have size 1 and the lines sizes 2 and 3.
                # A point takes the first class below the second: none under
                # (1, 1), all 6 under (1, 2). A line takes it above: the 11
                # lines under (1, 1), the two 3-point lines under (1, 2).
                top = sorted(g for lo, hi, _, g in asked if (lo, hi) == (0, full))
                points, lines = m.flats_by_rank[1], m.flats_by_rank[2]
                if vs == (1, 1):
                    assert top == sorted(lines) and len(top) == 11
                else:
                    assert top == sorted(points + (0b111, 0b111000)) and len(top) == 8
            asked.clear()
            gaps.clear()
            memo = {}
            assert traced_deg(delegating._replace(weight=weight), memo, 0, full, vs) == got, (conv, c)
            assert not [key for key in asked if is_boolean(m, *key[:2])], (conv, c)
            assert not [key for key in gaps if is_boolean(m, *key[:2])], (conv, c)
            boolean_intervals += sum(is_boolean(m, lo, hi) for lo, hi, _ in memo)
        assert boolean_intervals  # the B_R view answered some
