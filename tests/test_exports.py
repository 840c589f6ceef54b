"""Every ``__all__`` entry in the package names an attribute that exists.

``from module import *`` raises ``AttributeError`` on a stale entry, and
nothing else exercises star imports, so a name deleted from a module but
left in its ``__all__`` would otherwise go unnoticed.
"""

import importlib
import pkgutil

import repro


def _module_names() -> list[str]:
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rpartition(".")[2] != "__main__":
            names.append(info.name)
    return sorted(names)


def test_every_all_entry_resolves():
    missing = []
    for name in _module_names():
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            if not hasattr(module, export):
                missing.append(f"{name}.{export}")
    assert missing == []

