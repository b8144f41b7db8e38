import importlib
import pkgutil

import dunklosc


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # `from dunklosc.<module> import *` and the documented API
    checked = 0
    for info in pkgutil.iter_modules(dunklosc.__path__):
        module = importlib.import_module(f"dunklosc.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"dunklosc.{info.name}.__all__ names missing {name!r}"
            checked += 1
    assert checked > 0
