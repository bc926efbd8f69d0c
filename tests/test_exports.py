# Every hamsearch module with an __all__ lists exactly its public names:
# each listed name resolves, and each public function or class defined in
# the module is listed, so a deleted name cannot leave a stale export.

import importlib
import inspect
import pkgutil

import pytest

import hamsearch

MODULES = [importlib.import_module(f"hamsearch.{info.name}")
           for info in pkgutil.iter_modules(hamsearch.__path__)]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_modules_with_exports_are_found():
    assert {"amplify", "statevector", "trotter"} <= {m.__name__.split(".")[-1] for m in EXPORTING}


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_names(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []
    assert len(set(module.__all__)) == len(module.__all__)
