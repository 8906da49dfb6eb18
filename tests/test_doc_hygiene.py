"""Documentation hygiene: every public module, class and function in
the library carries a docstring.

The repo's contract is "doc comments on every public item"; this test
keeps that true as the codebase grows.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _public_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        names.append(info.name)
    return names


MODULES = _public_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} lacks a module docstring")


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports documented at their home
        if not (obj.__doc__ and obj.__doc__.strip()):
            missing.append(name)
        if inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                if not (inspect.isfunction(member)
                        or isinstance(member, property)):
                    continue
                # getattr on the class resolves the descriptor so
                # inspect.getdoc can follow inheritance (an override
                # inherits the documented contract of its base).
                doc = inspect.getdoc(getattr(obj, mname))
                if not (doc and doc.strip()):
                    missing.append(f"{name}.{mname}")
    assert not missing, (
        f"{module_name}: missing docstrings on {missing}")


def test_every_module_is_covered():
    # The walker found the whole tree (guards against silent import
    # failures hiding modules from the hygiene check).
    assert len(MODULES) > 50
    assert "repro.vpu.myriad2" in MODULES
    assert "repro.serve.stage" in MODULES
