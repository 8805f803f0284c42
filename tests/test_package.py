"""The package namespace: lazy re-exports of the submodules' public names."""

import importlib

import pytest

import clickgraph

from helpers import run_fresh


@pytest.mark.parametrize("name", [n for n in clickgraph.__all__ if n != "__version__"])
def test_export_is_its_submodule_object(name):
    obj = getattr(clickgraph, name)
    assert obj.__module__.startswith("clickgraph.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from clickgraph import *", namespace)
    assert set(clickgraph.__all__) <= set(namespace)
    assert namespace["kcore"] is clickgraph.graph.kcore


def test_dir_lists_every_export():
    assert set(clickgraph.__all__) <= set(dir(clickgraph))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        clickgraph.no_such_name
    assert not hasattr(clickgraph, "no_such_name")


def test_exports_import_their_submodule_on_first_access():
    code = (
        "import sys, clickgraph\n"
        "heavy = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "print(heavy(), 'clickgraph.graph' in sys.modules)\n"
        "from clickgraph import kcore\n"
        "print('numpy' in heavy(), 'clickgraph.graph' in sys.modules, 'clickgraph.ranking' in sys.modules)\n"
    )
    assert run_fresh(code) == "[] False\nTrue True False\n"
