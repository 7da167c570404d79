"""The package's exports: every name in `fbmpassage.__all__` and in each
module's `__all__` exists, and a star import of each succeeds."""

import importlib
import pkgutil

import fbmpassage


def test_every_exported_name_resolves_and_star_imports():
    # importing __main__ would run the command line
    modules = [f"fbmpassage.{m.name}" for m in pkgutil.iter_modules(fbmpassage.__path__) if m.name != "__main__"]
    for name in ["fbmpassage", *modules]:
        module = importlib.import_module(name)
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
        exec(f"from {name} import *", {})
