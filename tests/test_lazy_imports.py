"""What a call imports: lazy package exports, per-subcommand CLI imports,
and the tuple records that replaced dataclasses."""

import importlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import mixeuler
from mixeuler import cli
from mixeuler.matroid import MinorMap

SRC = Path(mixeuler.__file__).parents[1]
HEAVY = {"localization", "recursion", "tutte", "pmd", "trees", "matroid_json"}


def _imports(*args):
    """Module names `python -X importtime ARGS` reports, from its stderr."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    } - {"imported package"}


@lru_cache(maxsize=None)
def _bare():
    return _imports("-c", "pass")


def loaded(*args):
    """Modules a fresh interpreter imports for ARGS beyond a bare one's
    (site hooks of the host are not the package's doing)."""
    return _imports(*args) - _bare()


def package_modules(names):
    return {name.split(".", 1)[1] for name in names if name.startswith("mixeuler.")}


@pytest.mark.parametrize(
    "argv",
    [
        ["pvol", "--matroid", "uniform:3,6"],
        ["table", "--matroid", "uniform:3,6"],
        ["degree", "--matroid", "uniform:3,6", "--c", "1,1,0,0,0", "--pipeline", "flag"],
    ],
    ids=lambda argv: argv[0],
)
def test_light_subcommands_load_no_heavy_module(argv):
    names = loaded("-m", "mixeuler.cli", *argv)
    assert "mixeuler.expansion" in names
    assert not package_modules(names) & HEAVY
    assert not names & {"dataclasses", "json", "csv"}


@pytest.mark.parametrize("sub", ["tutte", "charpoly"])
def test_polynomial_subcommands_load_only_tutte(sub):
    mods = package_modules(loaded("-m", "mixeuler.cli", sub, "--matroid", "pg:2,2"))
    assert "tutte" in mods
    assert not mods & {"localization", "recursion", "pmd", "trees"}


def test_output_format_loads_its_writer_only():
    names = loaded("-m", "mixeuler.cli", "pvol", "--matroid", "boolean:3", "--format", "csv")
    assert "csv" in names and "json" not in names


def test_bare_package_import_loads_no_submodule():
    names = loaded("-c", "import mixeuler")
    assert "mixeuler" in names
    assert package_modules(names) == set()


# -- the lazy export table ------------------------------------------------------


@pytest.mark.parametrize("module", sorted(mixeuler._EXPORTS))
def test_export_table_lists_each_module_exports(module):
    home = importlib.import_module(f"mixeuler.{module}")
    if module == "errors":
        want = {
            n for n, v in vars(home).items() if isinstance(v, type) and v.__module__ == home.__name__
        }
    else:
        want = set(home.__all__)
    assert set(mixeuler._EXPORTS[module]) == want


def test_exports_are_their_home_objects():
    listed = dir(mixeuler)
    for module, names in mixeuler._EXPORTS.items():
        home = importlib.import_module(f"mixeuler.{module}")
        for name in names:
            assert name in mixeuler.__all__ and name in listed
            assert getattr(mixeuler, name) is getattr(home, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixeuler.no_such_name
    assert not hasattr(mixeuler, "oi_weight")
    assert not hasattr(mixeuler, "mult_weight")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from mixeuler import *", namespace)
    for name in mixeuler.__all__:
        assert namespace[name] is getattr(mixeuler, name)


# -- records ---------------------------------------------------------------------

RECORDS = {
    "matroid.MinorMap": ("parent_elements", "rank_dropped"),
    "expansion.WeightedFlagSum": ("matroid", "convention", "terms"),
    "expansion.LogConcavityResult": ("middle", "left", "right"),
    "pmd.PmdProfile": ("n_seq", "N_seq", "V_M"),
    "recursion.SupportClass": ("contiguous", "flatly_contiguous", "interval"),
    "trees.PostnikovTree": ("labels", "flats", "parent", "side"),
    "tutte.CharData": ("chi", "chi_reduced", "mu"),
    "cli.MatroidSpec": ("tag", "params", "text"),
    "cli._Pipeline": ("run", "check", "applies", "convention"),
}


@pytest.mark.parametrize("path", sorted(RECORDS))
def test_record_fields_are_read_only(path):
    module, name = path.split(".")
    cls = getattr(importlib.import_module(f"mixeuler.{module}"), name)
    fields = RECORDS[path]
    assert cls._fields == fields
    record = cls(*range(len(fields)))
    assert tuple(record) == tuple(range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1)
    with pytest.raises(AttributeError):
        record.extra = -1


def test_record_defaults_and_tuple_equality():
    assert MinorMap((0, 1)).rank_dropped is False
    assert MinorMap((0, 1)) == ((0, 1), False)
    assert repr(MinorMap((0, 1), True)) == "MinorMap(parent_elements=(0, 1), rank_dropped=True)"
    pipeline = cli._Pipeline(len)
    assert (pipeline.check, pipeline.applies, pipeline.convention) == ("", None, "oi")
