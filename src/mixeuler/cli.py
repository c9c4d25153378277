"""Command-line front end.

Subcommands compute single degrees (through a chosen pipeline), full degree
tables, Tutte/characteristic/one-variable polynomials, permutohedral
volumes, q-deformed Eulerian numbers, tree expansions, and cross-checking
suites. Results are emitted as plain text, JSON records, or CSV rows with
columns matroid, c, pipeline, value, millis; numeric values are serialized
as decimal strings so arbitrarily large integers survive the trip.

Exit codes: 0 success, 1 bad input, 2 broken internal invariant (two
pipelines disagreeing is always a bug, never a property of the input).

A call imports only what its subcommand runs: the module level needs
errors, matroid and expansion, and every handler, suite and pipeline
imports the rest of the package (and json or csv for output) where it is
used, so `pvol` or `table` never compiles localization or recursion.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import namedtuple
from math import factorial

from .errors import (
    InputError,
    InternalError,
    NotLopsided,
    NotPMD,
    ParseError,
    PreconditionViolation,
)
from .expansion import (
    check_composition,
    composition_to_indices,
    compositions,
    count_initial_descending_flags,
    expand_gamma_product,
    gamma_product_degree,
    indices_to_composition,
    log_concavity_check,
    pvol,
)
from .matroid import (
    Matroid,
    build_boolean,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
    set_of,
)

__all__ = ["MatroidSpec", "parse_matroid_spec", "run", "main"]


class MatroidSpec(namedtuple("MatroidSpec", "tag params text")):
    """A parsed matroid description: constructor tag plus its parameters."""

    __slots__ = ()

    def build(self) -> Matroid:
        if self.tag == "uniform":
            return build_uniform(*self.params)
        if self.tag == "boolean":
            return build_boolean(*self.params)
        if self.tag == "pg":
            return build_projective_geometry(*self.params)
        if self.tag == "sparse":
            rank, size, chs = self.params
            return build_sparse_paving(rank, size, chs)
        from .matroid_json import load_matroid

        return load_matroid(self.params[0])


def _spec_ints(spec: str, chunk: str, offset: int, count: int) -> tuple:
    parts = chunk.split(",")
    if len(parts) != count:
        raise ParseError(
            f"matroid spec {spec!r}: expected {count} comma-separated "
            f"integers at position {offset}"
        )
    out = []
    pos = offset
    for part in parts:
        if not part.isdecimal():
            raise ParseError(
                f"matroid spec {spec!r}: expected an integer at position {pos}"
            )
        out.append(int(part))
        pos += len(part) + 1
    return tuple(out)


def parse_matroid_spec(s: str) -> MatroidSpec:
    """Parse "uniform:R,N" | "boolean:N" | "pg:R,Q" | "sparse:R,N;012|345"
    | "file:PATH".

    A sparse block is one digit per element, or comma-separated integers
    when it holds a comma: "sparse:3,12;012|9,10,11".
    """
    text = s.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(
            f"matroid spec {text!r}: missing ':' at position {len(text)}"
        )
    offset = len(head) + 1
    if head == "file":
        if not rest:
            raise ParseError(
                f"matroid spec {text!r}: empty path at position {offset}"
            )
        return MatroidSpec("file", (rest,), text)
    if head == "boolean":
        return MatroidSpec("boolean", _spec_ints(text, rest, offset, 1), text)
    if head in ("uniform", "pg"):
        return MatroidSpec(head, _spec_ints(text, rest, offset, 2), text)
    if head == "sparse":
        nums, semi, blocks = rest.partition(";")
        rank, size = _spec_ints(text, nums, offset, 2)
        chs = []
        pos = offset + len(nums) + 1
        if semi:
            for block in blocks.split("|"):
                if "," in block:  # elements as integers, so above 9 too
                    chs.append(_spec_ints(text, block, pos, block.count(",") + 1))
                elif block.isdecimal():  # one digit per element
                    chs.append(tuple(int(ch) for ch in block))
                else:
                    raise ParseError(
                        f"matroid spec {text!r}: expected a digit block "
                        f"at position {pos}"
                    )
                pos += len(block) + 1
        return MatroidSpec("sparse", (rank, size, tuple(chs)), text)
    raise ParseError(f"matroid spec {text!r}: unknown tag {head!r} at position 0")


# -- small shared helpers ----------------------------------------------------


def _parse_int_list(value: str, flag: str) -> tuple:
    if not value.strip():
        return ()  # the empty composition, which fits only when n = 0
    out = []
    for part in value.split(","):
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise ParseError(
                f"{flag} expects comma-separated integers, got {part!r}"
            ) from None
    return tuple(out)


def _join(values) -> str:
    return ",".join(str(x) for x in values)


def _render_flag(flag) -> str:
    return ";".join(_join(set_of(mask)) for mask in flag)


# -- records -----------------------------------------------------------------

# The fields every record starts with, in this order; they are the CSV columns.
_FIELDS = ("matroid", "c", "pipeline", "value", "millis")


def _record(matroid: str, c: str, pipeline: str, value, millis: int, **extra) -> dict:
    """One output record: the shared fields, value as a string, then extra."""
    return dict(zip(_FIELDS, (matroid, c, pipeline, str(value), millis)), **extra)


def _timed(fn, *args):
    """(fn(*args), the whole milliseconds the call took)."""
    clock = time.perf_counter
    start = clock()
    value = fn(*args)
    return value, int((clock() - start) * 1000)


def _load(args):
    """(spec text, matroid) of the --matroid argument."""
    spec = parse_matroid_spec(args.matroid)
    return spec.text, spec.build()


# -- degree pipelines --------------------------------------------------------


def _first_repeat_position(vs) -> int:
    for k, val in enumerate(vs):
        if vs.count(val) >= 2:
            return k + 1
    raise PreconditionViolation(
        "the repeat-entry pipeline needs some index to occur at least twice"
    )


def _lopsided(matroid: Matroid, vs, convention):
    """lopsided_degree on the exponents of vs over the flat sizes."""
    from .pmd import lopsided_degree, pmd_profile

    profile = pmd_profile(matroid)
    slots = {size: i for i, size in enumerate(profile.n_seq)}
    exps = [0] * len(profile.n_seq)
    for val in vs:
        if val not in slots:
            raise PreconditionViolation(
                f"index {val} is not a flat size; the closed form covers "
                "products of classes at flat sizes only"
            )
        exps[slots[val]] += 1
    return lopsided_degree(matroid, tuple(exps))


def _support(matroid: Matroid, vs):
    from .recursion import classify_support

    return classify_support(matroid, vs)


def _contiguous(matroid: Matroid, vs) -> bool:
    return bool(vs) and _support(matroid, vs).contiguous


def _eulerian(matroid: Matroid, vs, convention):
    from .recursion import eulerian_recursion_degree

    return eulerian_recursion_degree(matroid, vs, _first_repeat_position(vs), convention)


def _delcon(matroid: Matroid, vs, convention):
    from .recursion import deletion_contraction_degree

    return deletion_contraction_degree(matroid, vs, 0, 0, convention)


def _localization(matroid: Matroid, vs, convention):
    from .localization import gamma_degree_via_localization

    return gamma_degree_via_localization(matroid, indices_to_composition(vs, matroid.n))


def _localizable(matroid: Matroid, vs) -> bool:
    from .localization import MAX_GROUND_SET

    return matroid.m <= MAX_GROUND_SET


def _convolution(matroid: Matroid, vs, convention):
    from .recursion import cv_via_tutte_convolution

    return cv_via_tutte_convolution(matroid, vs, convention)


class _Pipeline(
    namedtuple("_Pipeline", "run check applies convention", defaults=("", None, "oi"))
):
    """A degree pipeline and the domain the pipelines suite checks it on.

    run(matroid, sorted vs, convention) raises an InputError outside the
    pipeline's domain. The suite row `check` compares it, run in
    `convention`, with flag under oi on every composition where
    applies(matroid, vs) holds; lopsided has no row, the pmd suite checks it.
    """

    __slots__ = ()


PIPELINES = {
    "flag": _Pipeline(
        lambda m, vs, conv: gamma_product_degree(m, vs, conv),
        "flag_oi_equals_mult",
        lambda m, vs: True,
        "mult",
    ),
    "eulerian": _Pipeline(
        _eulerian,
        "repeat_entry_agrees",
        lambda m, vs: len(set(vs)) < len(vs) and _support(m, vs).flatly_contiguous,
    ),
    "delcon": _Pipeline(
        _delcon,
        "deletion_contraction_agrees",
        lambda m, vs: m.rank_total >= 3 and _contiguous(m, vs),
    ),
    "localization": _Pipeline(_localization, "localization_agrees", _localizable),
    "lopsided": _Pipeline(_lopsided),
    "convolution": _Pipeline(_convolution, "convolution_agrees", _contiguous),
}


# -- subcommand handlers: (args) -> (records, text, exit_code) ---------------


def _cmd_degree(args):
    label, matroid = _load(args)
    if (args.c is None) == (args.v is None):
        raise ParseError("exactly one of --c or --v is required")
    if args.c is not None:
        cs = _parse_int_list(args.c, "--c")
        vs = composition_to_indices(cs)
    else:
        vs = _parse_int_list(args.v, "--v")
        cs = indices_to_composition(vs, matroid.n)
    check_composition(cs, matroid.n, matroid.r)
    pipeline = PIPELINES[args.pipeline]
    value, millis = _timed(pipeline.run, matroid, tuple(sorted(vs)), args.convention)
    record = _record(
        label,
        _join(cs),
        args.pipeline,
        value,
        millis,
        v=_join(vs),
        convention=args.convention,
    )
    return [record], record["value"], 0


def _cmd_table(args):
    label, matroid = _load(args)
    records = []
    lines = []
    for cs in compositions(matroid.r, matroid.n):
        vs = composition_to_indices(cs)
        if args.contiguous_only and vs and not _contiguous(matroid, vs):
            continue
        value, millis = _timed(gamma_product_degree, matroid, vs)
        records.append(_record(label, _join(cs), "flag", value, millis, v=_join(vs)))
        lines.append(f"c=({_join(cs)})  v=({_join(vs)})  {value}")
    lines.append(f"{len(records)} compositions")
    return records, "\n".join(lines), 0


def _cmd_tutte(args):
    from .tutte import tutte_polynomial

    label, matroid = _load(args)
    poly, millis = _timed(tutte_polynomial, matroid)
    terms = [[i, j, str(poly.coeffs[(i, j)])] for i, j in sorted(poly.coeffs)]
    record = _record(label, "-", "tutte", poly.format(), millis, terms=terms)
    return [record], f"T(x,y) = {record['value']}", 0


def _cmd_charpoly(args):
    from .tutte import characteristic_data

    label, matroid = _load(args)
    data, millis = _timed(characteristic_data, matroid)
    records = [
        _record(label, name, "charpoly", value, millis, coeffs=[str(c) for c in coeffs])
        for name, value, coeffs in (
            ("chi", data.chi.format("t"), data.chi.coeffs),
            ("chi_reduced", data.chi_reduced.format("t"), data.chi_reduced.coeffs),
            ("mu", _join(data.mu), data.mu),
        )
    ]
    text = (
        f"chi(t) = {records[0]['value']}\n"
        f"chi_reduced(t) = {records[1]['value']}\n"
        f"mu = {records[2]['value']}"
    )
    return records, text, 0


def _cmd_cvpoly(args):
    from .recursion import cv_polynomial

    label, matroid = _load(args)
    vs = tuple(sorted(_parse_int_list(args.v, "--v")))
    poly, millis = _timed(cv_polynomial, matroid, vs)
    cs = indices_to_composition(vs, matroid.n)
    coeffs = [str(x) for x in poly.coeffs]
    record = _record(
        label, _join(cs), "cvpoly", poly.format("y"), millis, v=_join(vs), coeffs=coeffs
    )
    return [record], f"C_v(y) = {record['value']}", 0


def _cmd_pvol(args):
    label, matroid = _load(args)
    value, millis = _timed(pvol, matroid)
    record = _record(label, "-", "pvol", value, millis)
    return [record], record["value"], 0


def _cmd_remixed(args):
    from fractions import Fraction

    from .pmd import remixed_eulerian_eval

    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--q expects a rational like 2 or 1/2, got {args.q!r}") from None
    cs = _parse_int_list(args.c, "--c")
    value, millis = _timed(remixed_eulerian_eval, args.r, cs, q)
    record = _record("-", _join(cs), "remixed", value, millis, r=args.r, q=str(q))
    return [record], record["value"], 0


def _cmd_trees(args):
    from .trees import aggregate_by_flag, enumerate_trees

    label, matroid = _load(args)
    vs = _parse_int_list(args.v, "--v")

    def weigh():
        terms = enumerate_trees(matroid, vs)
        return len(terms), aggregate_by_flag(terms)

    (count, agg), millis = _timed(weigh)
    total = sum(agg.values(), 0)
    records = []
    lines = [f"{count} weighted trees over {len(agg)} flags"]
    for flag in sorted(agg):
        c = _render_flag(flag)
        flats = [list(set_of(mask)) for mask in flag]
        records.append(_record(label, c, "trees", agg[flag], millis, flats=flats))
        lines.append(f"flag {c}  {agg[flag]}")
    lines.append(f"total {total}")
    records.append(
        _record(label, "total", "trees", total, millis, v=_join(vs), tree_count=count)
    )
    return records, "\n".join(lines), 0


# -- verification suites -----------------------------------------------------


class _Tally:
    """Aggregate many boolean checks into one named row."""

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.first_bad = None

    def add(self, ok: bool, witness):
        self.count += 1
        if not ok and self.first_bad is None:
            self.first_bad = witness

    def row(self):
        if self.first_bad is not None:
            return (self.name, False, f"first failure at {self.first_bad}")
        return (self.name, True, f"{self.count} cases")


def _suite_charpoly(matroid: Matroid):
    from .polynomials import UniPoly
    from .tutte import characteristic_data

    rows = []
    data = characteristic_data(matroid)
    rows.append(("chi_vanishes_at_one", data.chi(1) == 0, f"chi(1) = {data.chi(1)}"))
    rows.append(
        (
            "reduced_form_exact",
            data.chi == data.chi_reduced * UniPoly((-1, 1)),
            "chi == chi_reduced * (t - 1)",
        )
    )
    degrees = _Tally("mu_equals_degrees")
    flags = _Tally("mu_equals_descending_flags")
    for k in range(matroid.r + 1):
        v = (1,) * k + (matroid.n,) * (matroid.r - k)
        for convention in ("oi", "mult"):
            got = gamma_product_degree(matroid, v, convention)
            degrees.add(got == data.mu[k], (k, convention, got, data.mu[k]))
        count = count_initial_descending_flags(matroid, k)
        flags.add(count == data.mu[k], (k, count, data.mu[k]))
    rows.append(degrees.row())
    rows.append(flags.row())
    return rows


def _suite_tutte(matroid: Matroid):
    from .polynomials import UniPoly
    from .recursion import c_degree, cv_polynomial
    from .tutte import tutte_polynomial

    r = matroid.r
    if r == 0:
        return [("tutte_trivial_rank", True, "no positive-degree products")]
    rows = []
    tutte = tutte_polynomial(matroid)
    t1y = tutte.substitute(1, UniPoly.variable())
    boolean = build_boolean(matroid.rank_total)
    fact = factorial(r)
    staircase = tuple(range(1, r + 1))
    rows.append(
        (
            "staircase_is_factorial_times_tutte",
            cv_polynomial(matroid, staircase) == fact * t1y,
            "C_(1..r)(y) == r! T(1,y)",
        )
    )
    rows.append(
        (
            "staircase_degree_counts_internal",
            gamma_product_degree(matroid, staircase) == fact * tutte.substitute(1, 0),
            "deg == r! T(1,0)",
        )
    )
    factorization = _Tally("contiguous_factorization")
    vectors = [
        vs
        for vs in map(composition_to_indices, compositions(r, matroid.n))
        if _contiguous(matroid, vs)
    ]
    for vs in vectors:
        if vs[0] != 1:
            continue
        ok = cv_polynomial(matroid, vs) == t1y * cv_polynomial(boolean, vs)
        factorization.add(ok, vs)
    rows.append(factorization.row())
    bases = tutte.substitute(1, 1)
    grand = sum(c_degree(matroid, vs, 0) for vs in vectors)
    rows.append(
        (
            "contiguous_grand_total",
            grand == fact * 2 ** (r - 1) * bases,
            f"sum {grand} == r! 2^(r-1) #bases",
        )
    )
    return rows


def _suite_pipelines(matroid: Matroid):
    checked = [(p, _Tally(p.check)) for p in PIPELINES.values() if p.check]
    for cs in compositions(matroid.r, matroid.n):
        vs = composition_to_indices(cs)
        want = gamma_product_degree(matroid, vs, "oi")
        for pipeline, tally in checked:
            if pipeline.applies(matroid, vs):
                got = pipeline.run(matroid, vs, pipeline.convention)
                tally.add(got == want, (cs, got, want))
    return [tally.row() for _, tally in checked if tally.count]


def _suite_trees(matroid: Matroid):
    from .trees import aggregate_by_flag, enumerate_trees

    agreement = _Tally("tree_weights_match_expansion")
    comps = list(compositions(matroid.r, matroid.n))[:120]
    for cs in comps:
        vs = composition_to_indices(cs)
        got = aggregate_by_flag(enumerate_trees(matroid, vs))
        want = {
            flag: w
            for flag, w in expand_gamma_product(matroid, vs).terms.items()
            if w
        }
        agreement.add(got == want, cs)
    return [agreement.row()]


def _suite_logconcave(matroid: Matroid):
    if matroid.r < 2:
        return [("log_concavity_trivial_rank", True, "needs r >= 2")]
    tally = _Tally("log_concavity_holds")
    n = matroid.n
    for cs in compositions(matroid.r - 2, n):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                result = log_concavity_check(matroid, cs, i, j)
                tally.add(result.holds, (cs, i, j))
    return [tally.row()]


def _suite_pmd(matroid: Matroid):
    from fractions import Fraction

    from .pmd import lopsided_degree, pmd_profile, pmd_recurrence_check

    profile = pmd_profile(matroid)
    sizes = matroid.level_sizes()
    rows = [
        (
            "size_perfect_profile",
            True,
            f"n={profile.n_seq} N={profile.N_seq} V={profile.V_M}",
        )
    ]
    closed = _Tally("lopsided_closed_form")
    exchange = _Tally("exchange_relation")
    r = matroid.r
    for cs in compositions(r, r):
        try:
            value = lopsided_degree(matroid, cs)
        except NotLopsided:
            pass
        else:
            vs = [sizes[k] for k in composition_to_indices(cs)]
            closed.add(value == gamma_product_degree(matroid, vs), cs)
        for i in range(1, r + 1):
            if cs[i - 1] >= 2:
                exchange.add(pmd_recurrence_check(matroid, cs, i), (cs, i))
    rows.append(closed.row())
    if r >= 2:
        rows.append(exchange.row())
    if matroid.rank_total == 3:
        n1, n2 = profile.n_seq
        top = matroid.m
        ok = (
            gamma_product_degree(matroid, (n1, n1))
            == Fraction((top - n1) * (top - n2) * n1, n2)
            and gamma_product_degree(matroid, (n1, n2))
            == (top - n1) * (top - n2)
            and gamma_product_degree(matroid, (n2, n2)) == (top - n2) ** 2
        )
        rows.append(("rank_three_closed_forms", ok, "three size formulas"))
    return rows


_SUITES = {
    "charpoly": _suite_charpoly,
    "tutte": _suite_tutte,
    "pipelines": _suite_pipelines,
    "trees": _suite_trees,
    "logconcave": _suite_logconcave,
    "pmd": _suite_pmd,
}


def _cmd_check(args):
    label, matroid = _load(args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]

    def rows_of(name):
        try:
            return _SUITES[name](matroid)
        except NotPMD as exc:
            if args.suite != "all":
                raise
            return [("size_perfect_profile", True, f"skipped: {exc}")]

    records = []
    lines = []
    all_ok = True
    for name in names:
        rows, millis = _timed(rows_of, name)
        for check, ok, detail in rows:
            all_ok = all_ok and ok
            value = "ok" if ok else "FAIL"
            records.append(
                _record(label, check, f"check:{name}", value, millis, detail=detail)
            )
            lines.append(f"{'ok  ' if ok else 'FAIL'} {name}:{check}  {detail}")
    lines.append(
        f"{len(records)} checks, "
        + ("all passed" if all_ok else "FAILURES above are bugs")
    )
    return records, "\n".join(lines), 0 if all_ok else 2


# -- argument parsing and dispatch -------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixeuler",
        description="Exact degree computations for products of hypersimplex "
        "classes in matroid Chow rings.",
    )
    shared = _Parser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="text",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, matroid=True):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.set_defaults(handler=handler)
        if matroid:
            p.add_argument(
                "--matroid",
                required=True,
                help="uniform:R,N | boolean:N | pg:R,Q | sparse:R,N;012|345 "
                "(or sparse:R,N;0,1,2|9,10,11) | file:PATH",
            )
        return p

    p = command("degree", _cmd_degree, "one degree through one pipeline")
    p.add_argument("--c", help="composition c_1,..,c_n over class indices")
    p.add_argument("--v", help="index multiset v_1,..,v_r")
    p.add_argument(
        "--pipeline",
        choices=PIPELINES,
        default="flag",
        help="algorithm (default flag)",
    )
    p.add_argument(
        "--convention",
        choices=("oi", "mult"),
        default="oi",
        help="weight convention for expansion pipelines (default oi)",
    )

    p = command("table", _cmd_table, "degrees of every composition")
    p.add_argument(
        "--contiguous-only",
        action="store_true",
        help="keep only compositions with interval support",
    )

    command("tutte", _cmd_tutte, "Tutte polynomial")
    command("charpoly", _cmd_charpoly, "characteristic polynomial and mu")

    p = command("cvpoly", _cmd_cvpoly, "one-variable degree polynomial of v")
    p.add_argument("--v", required=True, help="index multiset v_1,..,v_r")

    command("pvol", _cmd_pvol, "volume of the full class sum")

    p = command("remixed", _cmd_remixed, "q-deformed Eulerian number", matroid=False)
    p.add_argument("--r", type=int, required=True, help="rank parameter")
    p.add_argument("--q", required=True, help="positive rational, e.g. 2 or 1/2")
    p.add_argument("--c", required=True, help="exponents c_1,..,c_r")

    p = command("trees", _cmd_trees, "tree expansion of a product")
    p.add_argument("--v", required=True, help="index multiset v_1,..,v_r")

    p = command("check", _cmd_check, "run a verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=tuple(_SUITES) + ("all",),
        help="which identities to verify",
    )
    return parser


def _emit(records, text, fmt):
    if fmt == "json":
        import json

        print(json.dumps(records, indent=2))
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(_FIELDS)
        writer.writerows([rec[field] for field in _FIELDS] for rec in records)
    else:
        print(text)


def run(argv=None) -> int:
    """Parse argv, dispatch, print; return the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        records, text, code = args.handler(args)
        _emit(records, text, args.format)
        return code
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
