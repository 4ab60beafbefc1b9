"""Each module's ``__all__`` lists exactly its public functions and classes.

Every listed name must resolve, and every public function or class defined
in the module must be listed, so a public name that is added or deleted
shows up here.
"""

import importlib
import inspect
import pkgutil

import pytest

import bicontact

MODULES = [importlib.import_module(f"bicontact.{info.name}")
           for info in pkgutil.iter_modules(bicontact.__path__)]
LISTED = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", LISTED, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_definitions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"listed but undefined: {missing}"
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"public but not in __all__: {unlisted}"
