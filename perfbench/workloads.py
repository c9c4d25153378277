"""The four workloads: seeded inputs, a fixed op stream, reference checks.

A workload is a generator. The code before its first `yield` is set-up:
it builds what the workload holds fixed. Each yielded op is a pair
(thunk, check), or a triple (thunk, check, known) for an op that is known
to fail. The thunk calls into the library through `tracer.call`, so a
traced run gets one span per call without touching the package. The check
runs after the timed loop on the thunk's value and returns None or a
message saying why the value is wrong. A thunk that raises is a failed op
and its check never runs; unless the error is the op's `known` failure,
the raise counts as a wrong value. The ops depend only on the seed and on
what the library returns, so the same seed gives the same op list every
round.

Ops of different matroids and kinds are issued in a seeded shuffled order.
Machine speed drifts over seconds; in input order, that drift would fall
on one kind of op and move the latency percentiles between runs.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mixeuler as mx
from mixeuler.expansion import composition_to_indices, compositions
from mixeuler.recursion import classify_support

import refs

# The closure-table size limit: characteristic_data and `mixeuler charpoly`
# on matroids past 20 elements. These are the only failures the workloads
# expect; an op carrying one of them is matched on the exact error text.
SIZE_LIMIT = "InternalError: full closure table limited to 20 elements"
CLI_SIZE_LIMIT = "CliExit: exit 2: internal error: full closure table limited to 20 elements"


def _flats(matroid) -> set:
    return {f for level in matroid.flats_by_rank for f in level}


# -- table ----------------------------------------------------------------------


def table(seed: int, tracer):
    """All compositions of each matroid; an op is one composition under both
    conventions, so the flag engine does the work. The `table` subcommand
    runs the same compositions under `oi` only; here `mult` takes most of
    the time. The size-uniform member runs the sizes engine instead, so a
    change to the flag engine alone leaves its ops unchanged."""
    rng = random.Random(seed)
    call = tracer.call
    mats = [
        (call("matroid.build", mx.build_projective_geometry, 3, 2), refs.pg_chi(3, 2)),
        (call("matroid.build", mx.build_projective_geometry, 2, 5), refs.pg_chi(2, 5)),
        (call("matroid.build", mx.build_uniform, 4, 8), refs.uniform_chi(4, 8)),
    ]
    for size in (9, 10):
        chs = refs.circuit_hyperplanes(rng, 4, size, 3)
        levels = refs.masks(refs.sparse_paving_flats(4, size, chs))
        mats.append((call("matroid.build", mx.build_sparse_paving, 4, size, chs), refs.mobius_chi(levels)))
    for m, _ in mats:
        tracer.count("matroid.flats", len(_flats(m)))

    ops = []
    for m, chi in mats:
        # A_c at c = (k, 0, ..., 0, r - k) is the k-th coefficient mu^k of the
        # reduced characteristic polynomial
        mu = {(k,) + (0,) * (m.n - 2) + (m.r - k,): want for k, want in enumerate(refs.mu_vector(chi))}
        ops += [(_conventions_op(tracer, m, c), _table_check(c, mu.get(c))) for c in compositions(m.r, m.n)]
    rng.shuffle(ops)
    yield from ops


def _conventions_op(tracer, m, c):
    """One composition under both conventions, which must agree."""

    def op():
        return {
            conv: tracer.call(f"expansion.degree_{conv}", mx.mixed_eulerian_degree, m, c, conv)
            for conv in mx.CONVENTIONS
        }

    return op


def _table_check(c, mu):
    def check(got):
        if got["oi"] != got["mult"]:
            return f"{c}: oi {got['oi']} != mult {got['mult']}"
        if mu is not None and got["oi"] != mu:
            return f"{c}: {got['oi']} != mu {mu}"
        return None

    return check


# -- crosscheck -----------------------------------------------------------------


def crosscheck(seed: int, tracer):
    """Every applicable pipeline on every composition of small matroids,
    plus a seeded sample of tree expansions; all must agree. The 9-element
    member is past localization's ground-set limit, so it runs without it."""
    rng = random.Random(seed)
    call = tracer.call
    mats = [
        call("matroid.build", mx.build_boolean, 7),
        call("matroid.build", mx.build_uniform, 5, 8),
        call("matroid.build", mx.build_projective_geometry, 2, 2),
    ]
    for size in (8, 9):
        chs = refs.circuit_hyperplanes(rng, 4, size, 2)
        mats.append(call("matroid.build", mx.build_sparse_paving, 4, size, chs))
    for m in mats:
        tracer.count("matroid.flats", len(_flats(m)))
    u58 = mats[1]
    ops = [
        (_pipelines_op(tracer, m, c, composition_to_indices(c)), _agree)
        for m in mats
        for c in compositions(m.r, m.n)
    ]
    for c in rng.sample(list(compositions(u58.r, u58.n)), 30):
        ops.append((_trees_op(tracer, u58, composition_to_indices(c)), _trees_match))
    rng.shuffle(ops)
    yield from ops


def _pipelines_op(tracer, m, c, vs):
    call = tracer.call

    def op():
        got = _conventions_op(tracer, m, c)()
        if m.m <= mx.MAX_GROUND_SET:
            got["localization"] = call("localization.degree", mx.gamma_degree_via_localization, m, c)
        if not vs:
            return got
        support = call("recursion.classify", classify_support, m, vs)
        repeat = next((k + 1 for k, x in enumerate(vs) if vs.count(x) >= 2), None)
        if support.flatly_contiguous and repeat:
            got["eulerian"] = call("recursion.eulerian", mx.eulerian_recursion_degree, m, vs, repeat, "oi")
        if support.contiguous:
            if m.rank_total >= 3:
                got["delcon"] = call("recursion.delcon", mx.deletion_contraction_degree, m, vs, 0, 0, "oi")
            got["convolution"] = call("recursion.convolution", mx.cv_via_tutte_convolution, m, vs)
        return got

    return op


def _agree(got):
    return None if len(set(got.values())) == 1 else f"pipelines disagree: {got}"


def _trees_op(tracer, m, vs):
    def op():
        trees = tracer.call("trees.enumerate", mx.enumerate_trees, m, vs)
        flags = tracer.call("expansion.expand", mx.expand_gamma_product, m, vs)
        tracer.count("trees.count", len(trees))
        tracer.count("expansion.expand.terms", len(flags.terms))
        return vs, tracer.call("trees.aggregate", mx.aggregate_by_flag, trees), {
            f: w for f, w in flags.terms.items() if w
        }

    return op


def _trees_match(value):
    vs, trees, flags = value
    return None if trees == flags else f"tree weights for v={vs} differ from the flag expansion"


# -- invariants -----------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """What the benchmark knows about an input without asking the library.

    levels: flat counts by rank; chi: characteristic polynomial; tutte: its
    closed form where there is one; pmd: the size-perfect profile, None when
    the input is not size-perfect; uniform_rank: set for uniform matroids,
    whose lattice intervals and Boolean volume have closed forms; flats:
    every flat, when the input lists them.
    """

    levels: list
    chi: list
    tutte: dict = None
    pmd: tuple = None
    uniform_rank: int = None
    flats: set = None


def _pg_family(r, q):
    return Family([refs.gaussian_binomial(r + 1, k, q) for k in range(r + 2)], refs.pg_chi(r, q), pmd=(1, q + 1))


def _uniform_family(rank, size):
    return Family(
        [comb(size, k) for k in range(rank)] + [1],
        refs.uniform_chi(rank, size),
        tutte=refs.uniform_tutte(rank, size),
        pmd=tuple(range(1, rank)),
        uniform_rank=rank,
    )


def _sparse_family(levels):
    return Family([len(level) for level in levels], refs.mobius_chi(levels), flats=set().union(*levels))


# (rank, elements, circuit-hyperplanes) of the seeded sparse paving documents,
# given as circuit-hyperplane lists and as flat lists
_CH_DOCS = [(3, 6, 1), (3, 7, 2), (3, 8, 2), (3, 9, 3), (4, 7, 1), (4, 8, 2),
            (4, 9, 2), (4, 10, 3), (5, 8, 1), (5, 9, 2), (3, 10, 2), (4, 6, 1)]
_FLATS_DOCS = [(3, 6, 1), (3, 7, 1), (3, 8, 1), (4, 7, 1), (4, 8, 2), (4, 9, 2)]


def invariants(seed: int, tracer):
    """Many matroids with a few queries each, so construction and cache fill
    are never paid back. An op is one call, except the lattice walk: both
    intervals of every proper flat of one matroid form one op, so that the
    thousands of sub-millisecond interval queries on uniform:7,14 do not
    make up nearly every op. Builds are ops here and come first; the
    queries of all matroids follow. characteristic_data on the two
    projective planes past 20 elements hits the library's closure-table
    size limit; those ops stay in and count as failed."""
    rng = random.Random(seed)
    call = tracer.call
    inputs = [
        (lambda: call("matroid.build", mx.build_projective_geometry, 2, 5), _pg_family(2, 5)),
        (lambda: call("matroid.build", mx.build_projective_geometry, 2, 7), _pg_family(2, 7)),
        (lambda: call("matroid.build", mx.build_uniform, 7, 14), _uniform_family(7, 14)),
    ]
    for rank, size, count in _CH_DOCS:
        chs = refs.circuit_hyperplanes(rng, rank, size, count)
        doc = {"ground_set_size": size, "rank": rank, "circuit_hyperplanes": [list(ch) for ch in chs]}
        levels = refs.masks(refs.sparse_paving_flats(rank, size, chs))
        inputs.append((_load(tracer, doc), _sparse_family(levels)))
    for rank, size, count in _FLATS_DOCS:
        levels = refs.sparse_paving_flats(rank, size, refs.circuit_hyperplanes(rng, rank, size, count))
        doc = refs.shuffled_document(rng, size, levels)
        inputs.append((_load(tracer, doc), _sparse_family(refs.masks(levels))))
    for size in (4, 5, 6):
        doc = refs.shuffled_document(rng, size, refs.boolean_flats(size))
        inputs.append((_load(tracer, doc), _uniform_family(size, size)))

    built = []
    for make, fam in inputs:

        def build(make=make, fam=fam):
            m = make()
            built.append((m, fam))
            tracer.count("matroid.flats", len(_flats(m)))
            return m

        yield build, lambda m, fam=fam: _check_levels(m, fam)
    ops = [op for m, fam in built for op in _queries(tracer, m, fam)]
    rng.shuffle(ops)
    yield from ops


def _load(tracer, doc):
    text = json.dumps(doc)
    return lambda: tracer.call("matroid_json.load", mx.matroid_from_document, json.loads(text))


def _check_levels(m, fam):
    got = [len(level) for level in m.flats_by_rank]
    if got != fam.levels:
        return f"flat counts {got} != {fam.levels}"
    if fam.flats is not None and _flats(m) != fam.flats:
        return "flats differ from the document"
    return None


def _queries(tracer, m, fam):
    call = tracer.call
    yield (lambda: call("tutte.charpoly", mx.characteristic_data, m)), (
        lambda d: None if list(d.chi.coeffs) == fam.chi else f"chi {d.chi.coeffs} != {fam.chi}"
    ), SIZE_LIMIT if m.m > 20 else None
    if m.m <= 20:
        yield (lambda: call("tutte.tutte", mx.tutte_polynomial, m)), (lambda t: _check_tutte(m, fam, t))
    yield (lambda: _pmd(call, m)), (
        lambda p: None if p == fam.pmd else f"size-perfect profile {p} != {fam.pmd}"
    )
    if fam.pmd is not None:
        c = (m.r,) + (0,) * (m.r - 1)
        yield (lambda: call("pmd.lopsided", mx.lopsided_degree, m, c)), (
            lambda v: _same(v, mx.gamma_product_degree(m, (1,) * m.r), "lopsided vs flag")
        )
    yield (lambda: call("expansion.pvol", mx.pvol, m)), (lambda v: _check_pvol(m, fam, v))
    yield (lambda: call("matroid.minor", m.delete_element, 0)), (lambda res: _check_deletion(m, res))
    point = next(f for f in m.flats_by_rank[1] if f & 1)
    yield (lambda: call("matroid.minor", m.contraction, point)), (
        lambda res: _same(_flats(res[0]), refs.contraction_flats(m.flats_by_rank, point, m.m), "contraction flats")
    )
    yield (lambda: call("matroid.minor", m.truncate, 1)), (
        lambda t: _same(t.flats_by_rank, m.flats_by_rank[:-2] + ((m.full_mask,),), "truncation levels")
    )
    # one op walks both intervals of every proper flat, one call each
    intervals = [(lo, hi) for f in m.proper_flats() for lo, hi in ((0, f), (f, m.full_mask))]
    yield (lambda: [call("matroid.lattice", m.flats_strictly_between, lo, hi) for lo, hi in intervals]), (
        lambda got: next(filter(None, (_check_between(m, fam, *iv, g) for iv, g in zip(intervals, got))), None)
    )


def _same(got, want, what):
    return None if got == want else f"{what}: {got} != {want}"


def _pmd(call, m):
    try:
        return call("pmd.profile", mx.pmd_profile, m).n_seq
    except mx.NotPMD:
        return None


def _check_tutte(m, fam, t):
    want = fam.tutte if fam.tutte is not None else mx.tutte_polynomial(m, "deletion-contraction").coeffs
    return _same(dict(t.coeffs), want, "tutte")


def _check_pvol(m, fam, value):
    want = refs.boolean_pvol(m.m) if fam.uniform_rank == m.m else mx.pvol(m, "mult")
    return _same(value, want, "pvol")


def _check_deletion(m, res):
    child, minor_map = res
    want = refs.deletion_flats(m.flats_by_rank, 0, m.m)
    if _flats(child) != want:
        return "deletion flats differ from {F - e}"
    return _same(minor_map.rank_dropped, child.rank_total < m.rank_total, "coloop flag")


def _check_between(m, fam, lo, hi, got):
    if fam.uniform_rank is None:
        return _same(set(got), refs.between(m.flats_by_rank, lo, hi), f"flats between {lo} and {hi}")
    want = refs.uniform_between_count(fam.uniform_rank, m.m, lo, hi)
    if len(set(got)) != want:
        return f"{len(got)} flats between {lo} and {hi}, want {want}"
    if any(g & lo != lo or g & hi != g or g in (lo, hi) or g.bit_count() >= fam.uniform_rank for g in got):
        return f"a flat outside ({lo}, {hi})"
    return None


# -- cli --------------------------------------------------------------------------


class CliExit(Exception):
    """A `mixeuler` child that exited nonzero; the message carries the code
    and the first line of its standard error, or else the last line of its
    standard output."""


def cli(seed: int, tracer):
    """Subprocess calls of the command, one at a time, rotating subcommands
    and output formats. Each pays interpreter start, import, argparse,
    dispatch and output; the compute itself is kept small. One call of
    `charpoly` on pg:2,5 hits the closure-table size limit and stays in."""
    rng = random.Random(seed)
    src = os.path.abspath("src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    slots = _cli_slots(rng)
    formats = ("json", "csv", "text")
    calls = []
    for rep in range(10):
        for slot in slots:
            calls.append(slot(rng))
        if rep == 4:
            calls.append(("charpoly", ["--matroid", "pg:2,5"], lambda: refs.pg_chi(2, 5), CLI_SIZE_LIMIT))
    for k, (sub, argv, reference, *known) in enumerate(calls):
        fmt = formats[k % 3]
        yield _cli_op(tracer, env, sub, argv + ["--format", fmt]), _cli_check(sub, fmt, reference), *known


def _cli_op(tracer, env, sub, argv):
    cmd = [sys.executable, "-m", "mixeuler.cli", sub] + argv

    def run():
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=30)
        if proc.returncode:
            # `check` reports a disagreement on standard output
            first = (proc.stderr.strip().splitlines() or proc.stdout.strip().splitlines()[-1:] or [""])[0]
            raise CliExit(f"exit {proc.returncode}: {first}")
        return proc.stdout

    return lambda: tracer.call(f"cli.{sub}", run)


def _random_composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _cli_slots(rng):
    """One maker per subcommand call shape. A maker draws the call's inputs
    and returns (subcommand, arguments, reference thunk)."""
    chs7 = refs.circuit_hyperplanes(rng, 3, 7, 2)
    chs6 = refs.circuit_hyperplanes(rng, 3, 6, 1)
    sp7 = refs.sparse_spec(3, 7, chs7)
    sp6 = refs.sparse_spec(3, 6, chs6)

    def m7():
        return mx.build_sparse_paving(3, 7, chs7)

    def degree(pipeline, convention):
        def make(rng):
            c = _random_composition(rng, 2, 6)
            argv = ["--matroid", sp7, "--c", ",".join(map(str, c)), "--pipeline", pipeline,
                    "--convention", convention]
            return "degree", argv, lambda: mx.mixed_eulerian_degree(m7(), c, "oi")

        return make

    def table(rng):
        def reference():
            m6 = mx.build_sparse_paving(3, 6, chs6)
            return {",".join(map(str, c)): mx.mixed_eulerian_degree(m6, c) for c in compositions(m6.r, m6.n)}

        return "table", ["--matroid", sp6], reference

    def tutte(rng):
        return "tutte", ["--matroid", sp7], lambda: mx.tutte_polynomial(m7()).coeffs

    def charpoly(rng):
        size = rng.choice((6, 7))
        return "charpoly", ["--matroid", f"uniform:3,{size}"], lambda: refs.uniform_chi(3, size)

    def cvpoly(rng):
        v = sorted(rng.randint(1, 3) for _ in range(3))
        return "cvpoly", ["--matroid", "uniform:4,6", "--v", ",".join(map(str, v))], lambda: list(
            mx.cv_polynomial(mx.build_uniform(4, 6), v).coeffs
        )

    def pvol(rng):
        size = rng.choice((4, 5))
        return "pvol", ["--matroid", f"boolean:{size}"], lambda: refs.boolean_pvol(size)

    def remixed(rng):
        r = rng.choice((2, 3))
        q = rng.choice(("2", "1/2", "3"))
        c = _random_composition(rng, r, r)
        argv = ["--r", str(r), "--q", q, "--c", ",".join(map(str, c))]
        return "remixed", argv, lambda: mx.remixed_eulerian_eval(r, c, Fraction(q))

    def trees(rng):
        v = sorted(rng.randint(1, 4) for _ in range(2))
        return "trees", ["--matroid", "uniform:3,5", "--v", ",".join(map(str, v))], lambda: mx.expand_gamma_product(
            mx.build_uniform(3, 5), v
        ).total()

    def check(spec):
        return lambda rng: ("check", ["--suite", "pipelines", "--matroid", spec], lambda: True)

    # two check slots on rank-3 matroids of 7 elements, the heaviest calls:
    # with one, the 90th percentile would sit on the edge of their cluster
    return [degree("flag", "oi"), degree("localization", "oi"), degree("flag", "mult"), table, tutte,
            charpoly, cvpoly, pvol, remixed, trees, check("pg:2,2"), check(sp7)]


_TABLE_LINE = re.compile(r"c=\(([^)]*)\)\s+v=\([^)]*\)\s+(-?\d+)$")
# text-format prefix and variables of each polynomial subcommand
_POLY = {"tutte": ("T(x,y) = ", "xy"), "charpoly": ("chi(t) = ", "t"), "cvpoly": ("C_v(y) = ", "y")}


def _cli_value(sub, fmt, out):
    """The value a call printed, in the shape its reference thunk returns."""
    if fmt == "json":
        recs = json.loads(out)
    elif fmt == "csv":
        recs = list(csv.DictReader(io.StringIO(out)))
    else:
        lines = out.strip().splitlines()
    if sub == "check":
        if fmt == "text":
            return lines[-1].endswith("all passed")
        return all(r["value"] == "ok" for r in recs)
    if sub == "table":
        if fmt == "text":
            return {m.group(1): int(m.group(2)) for m in map(_TABLE_LINE.match, lines[:-1])}
        return {r["c"]: int(r["value"]) for r in recs}
    if sub == "trees":
        if fmt == "text":
            return Fraction(lines[-1].split()[-1])
        return Fraction(next(r["value"] for r in recs if r["c"] == "total"))
    if sub in _POLY:
        if fmt == "json" and sub == "tutte":
            return {(i, j): int(c) for i, j, c in recs[0]["terms"]}
        if fmt == "json":
            return _trim(int(c) for c in recs[0]["coeffs"])
        prefix, variables = _POLY[sub]
        poly = refs.parse_poly(recs[0]["value"] if fmt == "csv" else lines[0][len(prefix):], variables)
        return poly if sub == "tutte" else _trim(refs.coeff_list(poly))
    text = out.strip() if fmt == "text" else recs[0]["value"]
    return Fraction(text) if sub == "remixed" else int(text)


def _trim(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def _cli_check(sub, fmt, reference):
    def check(out):
        want = reference()
        if sub in ("charpoly", "cvpoly"):
            want = _trim(want)
        if sub == "tutte":
            want = dict(want)
        got = _cli_value(sub, fmt, out)
        return None if got == want else f"{sub} --format {fmt}: {got} != {want}"

    return check


WORKLOADS = {"table": table, "crosscheck": crosscheck, "invariants": invariants, "cli": cli}
