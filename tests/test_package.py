import importlib
import pkgutil

import shgspec


def test_every_all_name_exists():
    """Each shgspec module's __all__ lists only names the module defines."""
    checked = 0
    for info in pkgutil.iter_modules(shgspec.__path__):
        mod = importlib.import_module(f"shgspec.{info.name}")
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        checked += 1
        assert len(set(names)) == len(names), info.name
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (info.name, missing)
    assert checked >= 8
