"""The package surface: ``tpnlie`` re-exports exactly its modules' public names."""

from __future__ import annotations

from itertools import combinations

import tpnlie
from tpnlie import axioms, construct, core, corpus, files

MODULES = (axioms, construct, core, corpus, files)


def test_package_all_is_the_sorted_union_of_the_module_lists():
    assert tpnlie.__all__ == sorted(name for module in MODULES for name in module.__all__)
    assert len(tpnlie.__all__) == 40


def test_module_lists_are_disjoint():
    # A star import would let a later module's name shadow an earlier one's.
    for a, b in combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_each_exported_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tpnlie, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from tpnlie import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == tpnlie.__all__
