"""Schema validation and construction for matroid description files."""

import json

import pytest

from mixeuler.errors import MatroidFileError
from mixeuler.matroid import build_sparse_paving, build_uniform
from mixeuler.matroid_json import load_matroid, matroid_from_document

U24_BASES = {
    "ground_set_size": 4,
    "bases": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
}

U24_FLATS = {
    "ground_set_size": 4,
    "flats_by_rank": [
        [[]],
        [[0], [1], [2], [3]],
        [[0, 1, 2, 3]],
    ],
}


class TestDocuments:
    def test_bases_arm(self):
        m = matroid_from_document(U24_BASES)
        assert m.canonical_key() == build_uniform(2, 4).canonical_key()

    def test_circuit_hyperplanes_arm(self):
        doc = {
            "ground_set_size": 6,
            "rank": 3,
            "circuit_hyperplanes": [[0, 1, 2], [3, 4, 5]],
        }
        want = build_sparse_paving(3, 6, [(0, 1, 2), (3, 4, 5)])
        assert matroid_from_document(doc).canonical_key() == want.canonical_key()

    def test_flats_arm(self):
        m = matroid_from_document(U24_FLATS)
        assert m.canonical_key() == build_uniform(2, 4).canonical_key()

    @pytest.mark.parametrize(
        "doc,pointer",
        [
            ([1, 2], ""),
            ({"bases": [[0, 1]]}, ""),
            ({"ground_set_size": 4}, ""),
            ({"ground_set_size": 4, "bases": [[0, 1]], "flats_by_rank": []}, ""),
            ({"ground_set_size": 4, "bases": [[0, 1]], "junk": 1}, "/junk"),
            ({"ground_set_size": True, "bases": [[0, 1]]}, "/ground_set_size"),
            ({"ground_set_size": 0, "bases": [[0, 1]]}, "/ground_set_size"),
            ({"ground_set_size": 4, "bases": "no"}, "/bases"),
            ({"ground_set_size": 4, "bases": [[0, 9]]}, "/bases/0/1"),
            ({"ground_set_size": 4, "bases": [[0, True]]}, "/bases/0/1"),
            ({"ground_set_size": 4, "bases": [3]}, "/bases/0"),
            (
                {"ground_set_size": 6, "circuit_hyperplanes": [[0, 1, 2]]},
                "",
            ),
            (
                {"ground_set_size": 4, "rank": 2, "bases": [[0, 1]]},
                "/rank",
            ),
        ],
    )
    def test_rejects_with_pointer(self, doc, pointer):
        with pytest.raises(MatroidFileError) as info:
            matroid_from_document(doc)
        assert info.value.pointer == pointer

    def test_structural_errors_propagate(self):
        doc = {
            "ground_set_size": 4,
            "flats_by_rank": [[[]], [[0], [1]], [[0, 1, 2, 3]]],
        }
        with pytest.raises(Exception):
            matroid_from_document(doc)  # covers of the empty flat miss 2 and 3


class TestFiles:
    def test_load(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(U24_BASES))
        assert load_matroid(str(path)).m == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatroidFileError, match="cannot read"):
            load_matroid(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{oops")
        with pytest.raises(MatroidFileError, match="invalid JSON"):
            load_matroid(str(path))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'\xff\xfe{"ground_set_size": 4}')
        with pytest.raises(MatroidFileError, match="not UTF-8"):
            load_matroid(str(path))

    @pytest.mark.parametrize("closed", [False, True], ids=["unclosed", "closed"])
    def test_nesting_too_deep(self, tmp_path, closed):
        path = tmp_path / "m.json"
        path.write_text("[" * 100_000 + "]" * (100_000 if closed else 0))
        with pytest.raises(MatroidFileError, match="nested too deeply"):
            load_matroid(str(path))
