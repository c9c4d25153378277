"""No module-level container grows with use: whatever the package keeps
between calls lives on a matroid and dies with it."""

import importlib
import pkgutil
import weakref
from fractions import Fraction

import mixeuler
from mixeuler import cli
from mixeuler.expansion import expand_gamma_product, gamma_product_degree, pvol
from mixeuler.localization import gamma_degree_via_localization
from mixeuler.matroid import build_projective_geometry, build_uniform
from mixeuler.pmd import remixed_eulerian_eval
from mixeuler.recursion import cv_via_tutte_convolution, deletion_contraction_degree
from mixeuler.trees import enumerate_trees
from mixeuler.tutte import tutte_polynomial


CONTAINERS = (
    dict,
    list,
    set,
    weakref.WeakKeyDictionary,
    weakref.WeakValueDictionary,
    weakref.WeakSet,
)


def module_containers():
    """(module, name) -> length of every module-level dict, list, set and
    weak mapping or set."""
    modules = [mixeuler] + [
        importlib.import_module(f"mixeuler.{info.name}")
        for info in pkgutil.iter_modules(mixeuler.__path__)
    ]
    return {
        (module.__name__, name): len(value)
        for module in modules
        for name, value in vars(module).items()
        if name != "__builtins__" and isinstance(value, CONTAINERS)
    }


def test_no_module_level_container_grows(capsys):
    before = module_containers()
    fano = build_projective_geometry(2, 2)
    u35 = build_uniform(3, 5)
    gamma_product_degree(fano, (1, 3))
    gamma_degree_via_localization(u35, (1, 1, 0, 0))
    pvol(fano)
    tutte_polynomial(u35)
    cv_via_tutte_convolution(u35, (1, 1))
    enumerate_trees(u35, (2, 2))
    expand_gamma_product(fano, (3, 1), "mult")
    deletion_contraction_degree(u35, (1, 2), 0, 4)
    remixed_eulerian_eval(3, (1, 1, 1), Fraction(7, 13))  # a q no other test asks for
    assert cli.run(["check", "--suite", "all", "--matroid", "pg:2,2"]) == 0
    capsys.readouterr()
    after = module_containers()
    grown = {key: (before.get(key, 0), n) for key, n in after.items() if n > before.get(key, 0)}
    assert not grown
