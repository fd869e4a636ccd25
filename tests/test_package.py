import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minmatrix

PUBLIC = [name for name in minmatrix.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_submodules_object(name):
    value = getattr(minmatrix, name)
    if name in ("METHODS", "SUITES"):
        owner = {"METHODS": "symmetric", "SUITES": "verification"}[name]
    else:
        owner = minmatrix._SOURCES[name]
    module = importlib.import_module(f"minmatrix.{owner}")
    assert getattr(module, name) is value
    if hasattr(value, "__module__"):
        assert value.__module__ == module.__name__


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from minmatrix import *", namespace)
    assert set(minmatrix.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(minmatrix, name) for name in minmatrix.__all__)


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(minmatrix)
    assert set(minmatrix.__all__) <= set(listed)
    assert {"cli", "symmetric", "simulation", "verification"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'minmatrix' has no attribute 'no_such_name'"):
        minmatrix.no_such_name


def test_choice_tuples_have_one_definition():
    from minmatrix import simulation, symmetric, verification

    assert symmetric.METHODS is minmatrix.METHODS
    assert verification.SUITES is minmatrix.SUITES
    assert simulation.DISTRIBUTIONS is minmatrix.DISTRIBUTIONS


def test_submodule_resolves_after_plain_import():
    # A fresh interpreter, so that no earlier import has bound the submodule.
    src = str(Path(minmatrix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, minmatrix; loaded = 'minmatrix.symmetric' in sys.modules; "
        "print(loaded, minmatrix.symmetric.METHODS is minmatrix.METHODS)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "False True\n"
