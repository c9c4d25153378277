"""End-to-end command tests: spec grammar, exit codes, output formats."""

import csv
import io
import json
import re
from pathlib import Path

import pytest

from mixeuler import cli
from mixeuler.cli import MatroidSpec, parse_matroid_spec, run
from mixeuler.errors import InternalError, ParseError, RankOutOfRange
from mixeuler.expansion import mixed_eulerian_degree
from mixeuler.matroid import build_sparse_paving

U24_DOC = '{"ground_set_size": 4, "bases": [[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}'


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecParsing:
    def test_uniform(self):
        spec = parse_matroid_spec("uniform:3,5")
        assert spec == MatroidSpec("uniform", (3, 5), "uniform:3,5")
        assert spec.build().m == 5

    def test_boolean(self):
        assert parse_matroid_spec("boolean:4").build().r == 3

    def test_pg(self):
        assert parse_matroid_spec("pg:2,2").build().m == 7

    def test_sparse_with_blocks(self):
        spec = parse_matroid_spec("sparse:3,6;012|345")
        assert spec.params == (3, 6, ((0, 1, 2), (3, 4, 5)))
        assert spec.build().m == 6

    def test_sparse_without_blocks(self):
        spec = parse_matroid_spec("sparse:3,6")
        assert spec.params == (3, 6, ())

    def test_sparse_integer_blocks_name_elements_above_nine(self):
        spec = parse_matroid_spec("sparse:3,12;0,1,2|9,10,11")
        assert spec.params == (3, 12, ((0, 1, 2), (9, 10, 11)))
        assert spec.build().canonical_key() == build_sparse_paving(
            3, 12, [(0, 1, 2), (9, 10, 11)]
        ).canonical_key()

    def test_tutte_on_elements_above_nine(self, capsys):
        code, out, _ = run_cli(capsys, "tutte", "--matroid", "sparse:3,12;0,1,2|9,10,11")
        assert code == 0 and out.startswith("T(x,y) = ")

    def test_sparse_digit_blocks_keep_one_digit_per_element(self):
        spec = parse_matroid_spec("sparse:3,12;012|9,10,11")
        assert spec.params == (3, 12, ((0, 1, 2), (9, 10, 11)))

    @pytest.mark.parametrize("block", ["0,,1", "0,a", ",0,1", "0,1,", "0²1", "0,²,1"])
    def test_sparse_malformed_blocks_exit_one(self, capsys, block):
        code, out, err = run_cli(capsys, "tutte", "--matroid", f"sparse:3,6;{block}")
        assert code == 1 and not out
        assert err.startswith("error: matroid spec") and "position" in err

    def test_file(self, tmp_path):
        path = tmp_path / "u24.json"
        path.write_text(U24_DOC)
        spec = parse_matroid_spec(f"file:{path}")
        assert spec.tag == "file"
        assert spec.build().m == 4

    def test_whitespace_stripped(self):
        assert parse_matroid_spec("  boolean:3 ").text == "boolean:3"

    @pytest.mark.parametrize(
        "bad",
        [
            "nocolon",
            "uniform:3",
            "uniform:3,4,5",
            "uniform:a,5",
            "pg:2,",
            "boolean:-3",
            "pg:²,2",
            "sparse:3,6;",
            "sparse:3,6;01a",
            "sparse:3,6;012|",
            "file:",
            "mystery:3",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError, match="position"):
            parse_matroid_spec(bad)


class TestDegree:
    def test_boolean_world(self, capsys):
        code, out, _ = run_cli(
            capsys, "degree", "--matroid", "boolean:4", "--c", "1,1,1"
        )
        assert code == 0
        assert out == "6\n"

    def test_localized_projective(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "degree",
            "--matroid",
            "pg:2,2",
            "--v",
            "1,3",
            "--pipeline",
            "localization",
        )
        assert code == 0
        assert out == "24\n"

    def test_c_and_v_agree(self, capsys):
        _, by_v, _ = run_cli(capsys, "degree", "--matroid", "uniform:3,5", "--v", "2,2")
        _, by_c, _ = run_cli(
            capsys, "degree", "--matroid", "uniform:3,5", "--c", "0,2,0,0"
        )
        assert by_v == by_c == "9\n"

    @pytest.mark.parametrize(
        "pipeline,vs,expect",
        [
            ("flag", "1,3", "24"),
            ("eulerian", "3,3", "16"),
            ("delcon", "1,2", "16"),
            ("localization", "3,3", "16"),
            ("lopsided", "1,3", "24"),
            ("convolution", "1,1", "8"),
        ],
    )
    def test_every_pipeline_on_its_domain(self, capsys, pipeline, vs, expect):
        code, out, _ = run_cli(
            capsys,
            "degree",
            "--matroid",
            "pg:2,2",
            "--v",
            vs,
            "--pipeline",
            pipeline,
        )
        assert (code, out) == (0, expect + "\n")

    @pytest.mark.parametrize("pipeline", list(cli.PIPELINES))
    @pytest.mark.parametrize("vs", ["1", "1,2,3"])
    def test_v_of_wrong_length_exits_one(self, capsys, pipeline, vs):
        code, out, err = run_cli(
            capsys, "degree", "--matroid", "pg:2,2", "--v", vs, "--pipeline", pipeline
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_pipelines_match_readme_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("| pipeline ", 1)[1].split("\n\n", 1)[0]
        assert list(cli.PIPELINES) == re.findall(r"^\| `(\w+)`", table, re.M)

    @pytest.mark.parametrize(
        "argv,expect",
        [
            (["degree", "--c="], "1\n"),
            (["degree", "--v="], "1\n"),
            (["cvpoly", "--v="], "C_v(y) = 1\n"),
        ],
        ids=["degree-c", "degree-v", "cvpoly-v"],
    )
    def test_empty_lists_on_rank_one(self, capsys, argv, expect):
        # boolean:1 has r = n = 0: the empty composition is its one query
        code, out, _ = run_cli(capsys, *argv, "--matroid", "boolean:1")
        assert (code, out) == (0, expect)

    def test_boolean_on_no_elements_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "degree", "--matroid", "boolean:0", "--c=")
        assert (code, out) == (1, "")
        assert err == "error: Boolean matroid on 0 elements needs at least 1 element\n"
        with pytest.raises(RankOutOfRange):
            parse_matroid_spec("boolean:0").build()

    @pytest.mark.parametrize("spec", ["uniform:0,0", "uniform:2,0"])
    def test_uniform_on_no_elements_exits_one(self, capsys, spec):
        code, out, err = run_cli(capsys, "degree", "--matroid", spec, "--c=")
        assert (code, out) == (1, "")
        assert err == "error: uniform matroid on 0 elements needs at least 1 element\n"
        with pytest.raises(RankOutOfRange):
            parse_matroid_spec(spec).build()

    def test_empty_composition_needs_n_zero(self, capsys):
        code, _, err = run_cli(capsys, "degree", "--matroid", "boolean:3", "--c=")
        assert code == 1
        assert err == "error: composition has 0 parts, need 2\n"

    def test_conventions_match(self, capsys):
        args = ["degree", "--matroid", "uniform:4,6", "--v", "2,2,3"]
        _, oi, _ = run_cli(capsys, *args, "--convention", "oi")
        _, mult, _ = run_cli(capsys, *args, "--convention", "mult")
        assert oi == mult

    @pytest.mark.parametrize(
        "argv",
        [
            ["degree", "--matroid", "uniform:3,5"],
            ["degree", "--matroid", "uniform:3,5", "--c", "1,1,0,0", "--v", "1,2"],
            ["degree", "--matroid", "uniform:3,5", "--c", "1,1,1,0"],
            ["degree", "--matroid", "uniform:3,5", "--c", "1,1,0"],
            ["degree", "--matroid", "uniform:3,5", "--c", "3,-1,0,0"],
            ["degree", "--matroid", "uniform:3,5", "--c", "1,one,0,0"],
            ["degree", "--matroid", "uniform:3,5", "--v", "2,5"],
            ["degree", "--matroid", "pg:2,4", "--v", "1,3"],
            ["degree", "--matroid", "uniform:5,9", "--c", "4,0,0,0,0,0,0,0",
             "--pipeline", "localization"],
            ["degree", "--matroid", "sparse:3,6;012", "--v", "1,3",
             "--pipeline", "lopsided"],
            ["degree", "--matroid", "boolean:4", "--v", "1,2,3",
             "--pipeline", "eulerian"],
        ],
    )
    def test_input_errors_exit_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")


class TestPastTwentyElements:
    """Tutte and characteristic polynomials past 20 elements, counted on the lattice."""

    @pytest.mark.parametrize(
        "spec,mu",
        [
            ("pg:4,2", "1,30,280,960,1024"),
            ("pg:2,5", "1,30,125"),
            ("pg:3,5", "1,155,3875,15625"),  # 156 points
        ],
    )
    def test_charpoly(self, capsys, spec, mu):
        # mu is read off the product of (t - q^i), i = 1..r
        code, out, _ = run_cli(capsys, "charpoly", "--matroid", spec)
        assert code == 0
        assert f"mu = {mu}\n" in out

    def test_tutte(self, capsys):
        code, out, _ = run_cli(capsys, "tutte", "--matroid", "pg:2,5")
        assert code == 0 and out.startswith("T(x,y) = ")

    def test_check_charpoly(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "charpoly", "--matroid", "pg:2,5")
        assert code == 0 and "all passed" in out

    def test_convolution_matches_flag(self, capsys):
        args = ["degree", "--matroid", "pg:2,5", "--v", "1,2", "--pipeline"]
        code, convolution, _ = run_cli(capsys, *args, "convolution")
        assert code == 0
        assert convolution == run_cli(capsys, *args, "flag")[1] == "250\n"


class TestFormats:
    def test_json_record_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "degree",
            "--matroid",
            "pg:2,2",
            "--v",
            "3,3",
            "--format",
            "json",
        )
        assert code == 0
        records = json.loads(out)
        assert isinstance(records, list) and len(records) == 1
        rec = records[0]
        assert set(rec) >= {"matroid", "c", "pipeline", "value", "millis"}
        assert isinstance(rec["value"], str)
        matroid = parse_matroid_spec(rec["matroid"]).build()
        cs = tuple(int(x) for x in rec["c"].split(","))
        assert mixed_eulerian_degree(matroid, cs) == int(rec["value"])

    def test_csv_column_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--matroid", "uniform:3,5", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["matroid", "c", "pipeline", "value", "millis"]
        assert all(len(row) == 5 for row in rows)
        assert len(rows) == 1 + 10  # weak compositions of 2 into 4 parts
        total = sum(int(row[3]) for row in rows[1:])
        assert total == 55  # includes mu^1 = 4 at c = (1,0,0,1)

    def test_table_contiguous_filter(self, capsys):
        _, full, _ = run_cli(
            capsys, "table", "--matroid", "uniform:3,5", "--format", "csv"
        )
        _, part, _ = run_cli(
            capsys,
            "table",
            "--matroid",
            "uniform:3,5",
            "--contiguous-only",
            "--format",
            "csv",
        )
        assert len(part.splitlines()) < len(full.splitlines())

    def test_tutte_json_terms(self, capsys):
        code, out, _ = run_cli(
            capsys, "tutte", "--matroid", "uniform:2,4", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)[0]
        terms = {(i, j): int(c) for i, j, c in rec["terms"]}
        assert terms == {(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1}

    def test_charpoly_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "charpoly", "--matroid", "pg:2,2", "--format", "json"
        )
        assert code == 0
        by_name = {rec["c"]: rec for rec in json.loads(out)}
        assert by_name["mu"]["value"] == "1,6,8"
        assert by_name["chi"]["coeffs"] == ["-8", "14", "-7", "1"]

    def test_cvpoly_text(self, capsys):
        code, out, _ = run_cli(capsys, "cvpoly", "--matroid", "uniform:4,6", "--v", "1,2,3")
        assert code == 0
        assert out == "C_v(y) = 6*y^2 + 24*y + 60\n"

    def test_pvol_text(self, capsys):
        code, out, _ = run_cli(capsys, "pvol", "--matroid", "boolean:4")
        assert (code, out) == (0, "96\n")

    def test_remixed_fraction_and_csv(self, capsys):
        code, out, _ = run_cli(capsys, "remixed", "--r", "2", "--q", "1/2", "--c", "1,1")
        assert (code, out) == (0, "3/2\n")
        code, out, _ = run_cli(
            capsys,
            "remixed",
            "--r",
            "3",
            "--q",
            "2",
            "--c",
            "1,1,1",
            "--format",
            "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == "-"
        assert rows[1][3] == "21"  # (1)(1+2)(1+2+4)

    def test_trees_total_matches_degree(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "trees",
            "--matroid",
            "uniform:3,5",
            "--v",
            "2,2",
            "--format",
            "json",
        )
        assert code == 0
        records = json.loads(out)
        total = next(rec for rec in records if rec["c"] == "total")
        assert total["value"] == "9"
        flag_sum = sum(
            int(rec["value"]) for rec in records if rec["c"] != "total"
        )
        assert flag_sum == 9
        assert all("flats" in rec for rec in records if rec["c"] != "total")


class TestCheck:
    def test_charpoly_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--suite", "charpoly", "--matroid", "uniform:3,5"
        )
        assert code == 0
        assert "FAIL" not in out

    def test_all_suites_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--suite", "all", "--matroid", "uniform:2,4"
        )
        assert code == 0
        assert "all passed" in out

    def test_pipelines_suite_fano(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--suite", "pipelines", "--matroid", "pg:2,2"
        )
        assert code == 0
        assert "localization_agrees" in out

    @pytest.mark.parametrize(
        "spec,counts",
        [
            ("pg:2,2", (21, 21, 6, 11, 11)),
            ("sparse:3,6;012", (15, 15, 5, 9, 9)),
            ("uniform:3,9", (36, None, 8, 15, 15)),  # too large for localization
        ],
    )
    def test_pipelines_suite_rows(self, capsys, spec, counts):
        code, out, _ = run_cli(
            capsys, "check", "--suite", "pipelines", "--matroid", spec, "--format", "json"
        )
        assert code == 0
        names = (
            "flag_oi_equals_mult",
            "localization_agrees",
            "repeat_entry_agrees",
            "deletion_contraction_agrees",
            "convolution_agrees",
        )
        want = {name: f"{n} cases" for name, n in zip(names, counts) if n}
        assert {rec["c"]: rec["detail"] for rec in json.loads(out)} == want

    def test_pmd_suite_requires_size_perfect(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--suite", "pmd", "--matroid", "sparse:3,6;012"
        )
        assert code == 1
        assert "sizes" in err

    def test_all_skips_pmd_gracefully(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--suite", "all", "--matroid", "sparse:3,6;012"
        )
        assert code == 0
        assert "skipped" in out

    def test_failure_exits_two(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES, "charpoly", lambda matroid: [("forced", False, "witness")]
        )
        code, out, _ = run_cli(
            capsys, "check", "--suite", "charpoly", "--matroid", "boolean:3"
        )
        assert code == 2
        assert "FAIL" in out


class TestExitCodes:
    def test_no_command(self, capsys):
        assert run_cli(capsys, )[0] == 1

    def test_help(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "pvol", "--matroid", "boolean:3", "--bogus")[0] == 1

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InternalError("fabricated disagreement")

        monkeypatch.setattr(cli, "gamma_product_degree", boom)
        code, _, err = run_cli(
            capsys, "degree", "--matroid", "boolean:3", "--c", "1,1"
        )
        assert code == 2
        assert err.startswith("internal error:")

    def test_file_errors(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run_cli(
            capsys, "degree", "--matroid", f"file:{missing}", "--c", "1"
        )
        assert code == 1 and "cannot read" in err

        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        code, _, err = run_cli(
            capsys, "degree", "--matroid", f"file:{garbled}", "--c", "1"
        )
        assert code == 1 and "invalid JSON" in err

        extra = tmp_path / "extra.json"
        extra.write_text('{"ground_set_size": 4, "bases": [[0,1]], "x": 1}')
        code, _, err = run_cli(
            capsys, "degree", "--matroid", f"file:{extra}", "--c", "1,0,0"
        )
        assert code == 1 and "/x" in err

    def test_malformed_files_exit_one_without_traceback(self, capsys, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{}")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        for path, cause in ((binary, "not UTF-8"), (deep, "nested too deeply")):
            code, out, err = run_cli(capsys, "pvol", "--matroid", f"file:{path}")
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and cause in err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_file_matroid_computes(self, capsys, tmp_path):
        path = tmp_path / "u24.json"
        path.write_text(U24_DOC)
        code, out, _ = run_cli(
            capsys, "degree", "--matroid", f"file:{path}", "--c", "1,0,0"
        )
        assert (code, out) == (0, "3\n")


# One small call per subcommand; tests/cli_golden.txt holds what each prints
# in every format, with millis set to 0.
GOLDEN_CALLS = [
    "degree --matroid uniform:2,3 --c 1,0",
    "table --matroid uniform:2,3",
    "tutte --matroid uniform:2,3",
    "charpoly --matroid uniform:2,3",
    "cvpoly --matroid uniform:2,3 --v 1",
    "pvol --matroid uniform:2,3",
    "remixed --r 2 --q 1/2 --c 1,1",
    "trees --matroid uniform:3,4 --v 1,3",
    "check --suite all --matroid sparse:2,3;01",
]
FORMATS = ("text", "json", "csv")
RECORD_FIELDS = ["matroid", "c", "pipeline", "value", "millis"]


def golden_outputs():
    """'<call> --format <fmt>' -> stdout, from the blocks of cli_golden.txt.

    Each block is a line '$ mixeuler <call> --format <fmt>' followed by
    the output; CSV is kept with '\\n' line ends.
    """
    text = (Path(__file__).parent / "cli_golden.txt").read_text()
    blocks = text.split("$ mixeuler ")[1:]
    return dict(block.split("\n", 1) for block in blocks)


def mask_millis(out: str) -> str:
    out = re.sub(r'"millis": \d+', '"millis": 0', out)
    return re.sub(r",\d+\r\n", ",0\r\n", out)


class TestGolden:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("call", GOLDEN_CALLS, ids=lambda call: call.split()[0])
    def test_stdout_is_unchanged(self, capsys, call, fmt):
        code, out, err = run_cli(capsys, *call.split(), "--format", fmt)
        assert (code, err) == (0, "")
        want = golden_outputs()[f"{call} --format {fmt}"]
        if fmt == "csv":
            want = want.replace("\n", "\r\n")
        assert mask_millis(out) == want
        if fmt == "json":
            for rec in json.loads(out):
                assert list(rec)[:5] == RECORD_FIELDS
                assert isinstance(rec["value"], str)

    def test_every_subcommand_is_covered(self):
        subcommands = cli._build_parser()._subparsers._group_actions[0].choices
        assert [call.split()[0] for call in GOLDEN_CALLS] == list(subcommands)

    @pytest.mark.parametrize(
        "call, err",
        [
            ("tutte --matroid nope:1", "matroid spec 'nope:1': unknown tag 'nope' at position 0"),
            ("cvpoly --matroid nope:1 --v x", "matroid spec 'nope:1': unknown tag 'nope' at position 0"),
            ("cvpoly --matroid file: --v 1", "matroid spec 'file:': empty path at position 5"),
            ("degree --matroid uniform:2,3 --c 1,0 --v 1", "exactly one of --c or --v is required"),
            ("degree --matroid uniform:2,3 --c 2,0", "composition sums to 2, need 1"),
            (
                "degree --matroid uniform:2,3 --v 1 --pipeline eulerian",
                "the repeat-entry pipeline needs some index to occur at least twice",
            ),
            ("remixed --r 2 --q x --c 1,1", "--q expects a rational like 2 or 1/2, got 'x'"),
            ("trees --matroid uniform:2,3 --v 1,2", "product of 2 classes exceeds top degree 1"),
            (
                "check --suite pmd --matroid sparse:2,3;01",
                "rank 1 flats (0, 1) and (2,) have sizes 2 and 1",
            ),
            ("pvol --matroid boolean:3 --bogus", "unrecognized arguments: --bogus"),
        ],
        ids=lambda x: x.split()[0],
    )
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_errors_are_unchanged(self, capsys, call, err, fmt):
        assert run_cli(capsys, *call.split(), "--format", fmt) == (1, "", f"error: {err}\n")
