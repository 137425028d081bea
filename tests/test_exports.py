"""Every public name is stated once, in its module's ``__all__``; the package
re-exports each module with ``from .<module> import *`` and joins their
lists into ``herglotz.__all__``.  These tests check that the join exports
exactly those names, that every exception class is listed, and that the
star re-exports leak no helper into the package namespace."""

import importlib
import inspect
import subprocess
import sys

import herglotz
from herglotz import exceptions

SUBMODULES = ["exceptions", "extension", "io", "linalg", "series", "toeplitz"]
# io's text helpers serve the CLI and stay out of the package namespace
IO_TEXT_HELPERS = {"format_float", "canonical_json", "CanonicalText"}


def test_package_exports_every_submodule_export():
    lists = [importlib.import_module(f"herglotz.{module}").__all__ for module in SUBMODULES]
    names = [name for names in lists for name in names]
    # each name in exactly one list, and every exception class in one
    assert len(set(names)) == len(names)
    assert {
        name
        for name, obj in vars(exceptions).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
    } == set(exceptions.__all__)
    assert sorted(herglotz.__all__) == sorted(names)
    assert not IO_TEXT_HELPERS & set(names)
    assert all(hasattr(herglotz.io, name) for name in IO_TEXT_HELPERS)


def test_every_listed_name_resolves():
    for module in [herglotz, *(importlib.import_module(f"herglotz.{m}") for m in SUBMODULES)]:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_namespace_is_the_listed_names_and_the_submodules():
    # in a fresh interpreter: a test that imports herglotz.cli binds it here
    code = "import herglotz; print(' '.join(n for n in dir(herglotz) if not n.startswith('_')))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert sorted(run.stdout.split()) == sorted([*herglotz.__all__, *SUBMODULES])
    star = {}
    exec("from herglotz import *", star)
    assert set(star) - {"__builtins__"} == set(herglotz.__all__)
