"""Every name a ``repro`` package lists in ``__all__`` must resolve.

A deleted module or class can leave its re-export behind in a
package's ``__all__``; ``from repro.x import *`` would then fail at a
user's import, far from the deletion.  This walks every package
under ``repro`` and resolves each listed name.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages() -> list[str]:
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


def test_every_subpackage_is_walked():
    # The walk must see the packages, not an empty path.
    assert {"repro.core", "repro.sim", "repro.metrics"} <= set(_packages())


@pytest.mark.parametrize("package", _packages())
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} declares no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{package}.__all__ lists unresolvable {missing}"
    assert len(set(exported)) == len(exported), f"{package}.__all__ repeats"
