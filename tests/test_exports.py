"""Every public name is stated three times: in its module's ``__all__``, in
the import of ``herglotz/__init__.py`` and in ``herglotz.__all__``.  These
tests fail when one of the three is forgotten."""

import importlib
import inspect

import herglotz
from herglotz import exceptions

SUBMODULES = ["extension", "io", "linalg", "series", "toeplitz"]
# io's text helpers serve the CLI and stay out of the package namespace
IO_TEXT_HELPERS = {"format_float", "pairs_to_matrix", "canonical_json", "CanonicalText"}


def test_package_exports_every_submodule_export():
    names = {
        name
        for module in SUBMODULES
        for name in importlib.import_module(f"herglotz.{module}").__all__
    }
    names |= {
        name
        for name, obj in vars(exceptions).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
    }
    assert sorted(herglotz.__all__) == sorted(names - IO_TEXT_HELPERS)
    assert len(set(herglotz.__all__)) == len(herglotz.__all__)


def test_every_listed_name_resolves():
    for module in [herglotz, *(importlib.import_module(f"herglotz.{m}") for m in SUBMODULES)]:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
