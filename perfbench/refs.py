"""Seeded input generators and independent reference values.

Nothing here imports mixeuler: the references are closed forms or small
direct computations on flat lists, so a defect in the library cannot make
its own reference agree with it.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import comb, factorial

# -- seeded inputs ------------------------------------------------------------


def circuit_hyperplanes(rng, rank: int, size: int, count: int) -> tuple:
    """`count` circuit-hyperplanes of a sparse paving matroid: rank-sets that
    meet pairwise in at most rank-2 elements.

    The configuration is fixed, the first such sets in lexicographic order,
    and the seed relabels the ground set. Every seed therefore gives an
    isomorphic matroid, and the work differs between seeds only through
    the labels.
    """
    chosen = []
    for cand in combinations(range(size), rank):
        if all(len(set(cand) & set(other)) <= rank - 2 for other in chosen):
            chosen.append(cand)
            if len(chosen) == count:
                break
    label = rng.sample(range(size), size)
    return tuple(tuple(sorted(label[x] for x in ch)) for ch in chosen)


def sparse_paving_flats(rank: int, size: int, chs) -> list:
    """Flats by rank of the sparse paving matroid, as sorted element lists."""
    levels = [[list(s) for s in combinations(range(size), k)] for k in range(rank - 1)]
    ch_sets = [set(ch) for ch in chs]
    top = [list(ch) for ch in chs]
    for s in combinations(range(size), rank - 1):
        if not any(set(s) <= ch for ch in ch_sets):
            top.append(list(s))
    levels.append(sorted(top))
    levels.append([list(range(size))])
    return levels


def boolean_flats(size: int) -> list:
    return [[list(s) for s in combinations(range(size), k)] for k in range(size + 1)]


def shuffled_document(rng, size: int, levels) -> dict:
    """A flats_by_rank document listing the same flats in a seeded order."""
    out = []
    for level in levels:
        flats = [rng.sample(flat, len(flat)) for flat in level]
        rng.shuffle(flats)
        out.append(flats)
    return {"ground_set_size": size, "flats_by_rank": out}


def sparse_spec(rank: int, size: int, chs) -> str:
    """CLI spec text; digit blocks limit this to at most 10 elements."""
    blocks = "|".join("".join(str(x) for x in ch) for ch in chs)
    return f"sparse:{rank},{size};{blocks}" if blocks else f"sparse:{rank},{size}"


# -- flat lattices as bitmask sets ------------------------------------------


def masks(levels) -> list:
    return [sorted(sum(1 << x for x in flat) for flat in level) for level in levels]


def relabel(mask: int, kept) -> int:
    """Mask over parent elements to a mask over the induced order of `kept`."""
    out = 0
    for i, e in enumerate(kept):
        if (mask >> e) & 1:
            out |= 1 << i
    return out


def deletion_flats(levels, e: int, m: int) -> set:
    """Flats of M minus e are the sets F - e over flats F of M."""
    kept = [x for x in range(m) if x != e]
    return {relabel(f, kept) for level in levels for f in level}


def contraction_flats(levels, g: int, m: int) -> set:
    """Flats of M / G are the sets F - G over flats F containing G."""
    kept = [x for x in range(m) if not (g >> x) & 1]
    return {relabel(f, kept) for level in levels for f in level if f & g == g}


def between(levels, lo: int, hi: int) -> set:
    return {g for level in levels for g in level if g & lo == lo and g & hi == g} - {lo, hi}


def uniform_between_count(rank: int, size: int, lo: int, hi: int) -> int:
    """Flats strictly between lo and hi in U(rank, size), where the proper
    flats are exactly the subsets of size below rank."""
    a, b = lo.bit_count(), hi.bit_count()
    top = min(b - 1, rank - 1)
    return sum(comb(b - a, j - a) for j in range(a + 1, top + 1))


# -- polynomials as coefficient lists, lowest degree first -----------------


def poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def pg_chi(r: int, q: int) -> list:
    """chi of PG(r, q), rank r+1: the product of (t - q^i) for i = 0..r."""
    out = [1]
    for i in range(r + 1):
        out = poly_mul(out, [-(q**i), 1])
    return out


def uniform_chi(rank: int, size: int) -> list:
    """chi(t) = sum over subsets S of (-1)^|S| t^(rank - min(|S|, rank))."""
    out = [0] * (rank + 1)
    for k in range(size + 1):
        out[rank - min(k, rank)] += (-1) ** k * comb(size, k)
    return out


def mobius_chi(levels) -> list:
    """chi(t) = sum over flats F of mu(0, F) t^(r - rk F), by Rota's theorem."""
    top = len(levels) - 1
    mu = {0: 1}
    out = [0] * (top + 1)
    out[top] = 1
    for k in range(1, top + 1):
        for f in levels[k]:
            mu[f] = -sum(v for g, v in mu.items() if g & f == g and g != f)
            out[top - k] += mu[f]
    return out


def mu_vector(chi) -> list:
    """Unsigned coefficients of chi(t)/(t-1), from the top degree down."""
    reduced = []
    carry = 0
    for c in reversed(chi[1:]):
        carry = c + carry
        reduced.append(carry)
    return [abs(c) for c in reduced]


def uniform_tutte(rank: int, size: int) -> dict:
    if rank == size:
        return {(size, 0): 1}
    out = {}
    for i in range(1, rank + 1):
        out[(i, 0)] = comb(size - i - 1, rank - i)
    for j in range(1, size - rank + 1):
        out[(0, j)] = comb(size - j - 1, rank - 1)
    return {k: v for k, v in out.items() if v}


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def boolean_pvol(size: int) -> int:
    """pvol of the Boolean matroid on n+1 elements is n! (n+1)^(n-1)."""
    n = size - 1
    return factorial(n) * size ** (n - 1)


# -- parsing CLI renderings ----------------------------------------------------

_TERM = re.compile(r" ([+-]) ")


def parse_poly(text: str, variables: str) -> dict:
    """Rendered signed sum such as "x^2 + 3*x*y - 2" to {exponents: coeff}."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _TERM.split(text)
    out = {}
    for idx in range(0, len(pieces), 2):
        if idx:
            sign = 1 if pieces[idx - 1] == "+" else -1
        coef = 1
        exps = [0] * len(variables)
        for factor in pieces[idx].split("*"):
            if factor.isdigit():
                coef = int(factor)
                continue
            var, _, power = factor.partition("^")
            exps[variables.index(var)] += int(power) if power else 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coef
    return {k: v for k, v in out.items() if v}


def coeff_list(poly: dict) -> list:
    """Univariate {(k,): c} to a dense list, lowest degree first."""
    top = max((k[0] for k in poly), default=0)
    return [poly.get((k,), 0) for k in range(top + 1)]
