"""The public surface: every exported name resolves, is documented and is owned."""

import importlib
import pkgutil
import types

import cmclab

SUBMODULES = [importlib.import_module(f"cmclab.{info.name}")
              for info in pkgutil.iter_modules(cmclab.__path__)]


def test_every_all_name_resolves():
    missing = [f"{mod.__name__}.{name}"
               for mod in SUBMODULES
               for name in mod.__all__
               if not hasattr(mod, name)]
    assert missing == []


def test_every_public_callable_has_a_docstring():
    undocumented = [f"{mod.__name__}.{name}"
                    for mod in SUBMODULES
                    for name, obj in ((n, getattr(mod, n)) for n in mod.__all__)
                    if callable(obj) and not (obj.__doc__ or "").strip()]
    assert undocumented == []


def test_every_top_level_name_is_exported_by_a_submodule():
    exported = {name for mod in SUBMODULES for name in mod.__all__}
    public = {name for name, value in vars(cmclab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - exported) == []
