"""Load matroids from JSON documents.

Three document shapes are accepted, distinguished by which key carries the
structure:

    {"ground_set_size": N, "bases": [[0, 1], [0, 2], ...]}
    {"ground_set_size": N, "rank": R, "circuit_hyperplanes": [[...], ...]}
    {"ground_set_size": N, "flats_by_rank": [[[]], [[0], [1]], ...]}

Schema violations raise MatroidFileError carrying a JSON pointer to the
offending node; semantic violations (a bad exchange, a non-flat) propagate
from the corresponding builder.
"""

from __future__ import annotations

import json

from .errors import MatroidFileError
from .matroid import (
    Matroid,
    build_from_bases,
    build_from_flats,
    build_sparse_paving,
)

__all__ = ["load_matroid", "matroid_from_document"]

_ARMS = ("bases", "circuit_hyperplanes", "flats_by_rank")


def _require_int(value, pointer: str, minimum: int) -> int:
    if type(value) is not int:
        raise MatroidFileError("expected an integer", pointer)
    if value < minimum:
        raise MatroidFileError(f"must be at least {minimum}", pointer)
    return value


def _require_list(value, pointer: str) -> list:
    if not isinstance(value, list):
        raise MatroidFileError("expected an array", pointer)
    return value


def _element_lists(value, pointer: str, size: int) -> list:
    out = []
    for i, row in enumerate(_require_list(value, pointer)):
        here = f"{pointer}/{i}"
        members = []
        for j, x in enumerate(_require_list(row, here)):
            if type(x) is not int or not 0 <= x < size:
                raise MatroidFileError(
                    f"expected an element in 0..{size - 1}", f"{here}/{j}"
                )
            members.append(x)
        out.append(tuple(members))
    return out


def matroid_from_document(doc) -> Matroid:
    """Build a Matroid from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise MatroidFileError("top level must be an object", "")
    present = [k for k in _ARMS if k in doc]
    if len(present) != 1:
        raise MatroidFileError(
            "need exactly one of bases, circuit_hyperplanes, flats_by_rank", ""
        )
    arm = present[0]
    allowed = {"ground_set_size", arm}
    if arm == "circuit_hyperplanes":
        allowed.add("rank")
    for key in doc:
        if key not in allowed:
            raise MatroidFileError("unexpected key", f"/{key}")
    if "ground_set_size" not in doc:
        raise MatroidFileError("missing ground_set_size", "")
    size = _require_int(doc["ground_set_size"], "/ground_set_size", 1)

    if arm == "bases":
        rows = _element_lists(doc["bases"], "/bases", size)
        return build_from_bases(size, rows)
    if arm == "circuit_hyperplanes":
        if "rank" not in doc:
            raise MatroidFileError("missing rank", "")
        rank = _require_int(doc["rank"], "/rank", 1)
        rows = _element_lists(doc["circuit_hyperplanes"], "/circuit_hyperplanes", size)
        return build_sparse_paving(rank, size, rows)
    levels = []
    for i, level in enumerate(_require_list(doc["flats_by_rank"], "/flats_by_rank")):
        levels.append(_element_lists(level, f"/flats_by_rank/{i}", size))
    return build_from_flats(size, levels)


def load_matroid(path: str) -> Matroid:
    """Read and validate a matroid JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise MatroidFileError(f"cannot read {path}: {exc}", "") from exc
    except UnicodeDecodeError as exc:
        raise MatroidFileError(f"not UTF-8 text: {exc}", "") from exc
    except json.JSONDecodeError as exc:
        raise MatroidFileError(f"invalid JSON: {exc}", "") from exc
    except RecursionError as exc:
        raise MatroidFileError("invalid JSON: arrays or objects nested too deeply", "") from exc
    return matroid_from_document(doc)
