"""The package's public surface is the layers' ``__all__`` lists and nothing else,
and the layers import one another in one order.

Each layer declares its public names once, in ``__all__``; the package
re-exports them with star imports.  A name defined elsewhere, listed in two
layers (a later star import would silently shadow the earlier one) or bound
by hand in ``__init__.py`` would let the package and the layers disagree.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import vacuumdata

# the layers the package re-exports, in import order; cli is not re-exported
EXPORTED = ("errors", "radial", "conformal", "solver", "verify")
LAYERS = (*EXPORTED, "cli")
# a layer may import, relatively, only layers earlier in this order: no
# cycle can form, and the equation cannot move back into the solver
ORDER = ("errors", "radial", "conformal", "verify", "solver", "cli")
SOURCES = pathlib.Path(vacuumdata.__file__).parent


def source_tree(module) -> ast.Module:
    path = pathlib.Path(module.__file__)
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def top_level_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.fixture(scope="module")
def layers():
    return {name: importlib.import_module(f"vacuumdata.{name}") for name in LAYERS}


@pytest.mark.parametrize("layer", LAYERS)
def test_every_entry_is_defined_in_its_own_layer(layers, layer):
    module = layers[layer]
    assert module.__all__, f"{layer} exports nothing"
    missing = set(module.__all__) - top_level_definitions(source_tree(module))
    assert not missing, f"{layer}.__all__ lists names it does not define: {sorted(missing)}"


def test_no_entry_is_in_two_layers(layers):
    owners: dict[str, list[str]] = {}
    for layer, module in layers.items():
        assert len(set(module.__all__)) == len(module.__all__), f"{layer}.__all__ repeats a name"
        for name in module.__all__:
            owners.setdefault(name, []).append(layer)
    shared = {name: where for name, where in owners.items() if len(where) > 1}
    assert not shared


def test_package_binds_the_layer_objects(layers):
    for layer in EXPORTED:
        for name in layers[layer].__all__:
            assert getattr(vacuumdata, name) is getattr(layers[layer], name), f"{layer}.{name}"
    public = {name for name in vars(vacuumdata) if not name.startswith("_")}
    exported = {name for layer in EXPORTED for name in layers[layer].__all__}
    # importing a layer binds it on the package too
    assert public - exported <= set(LAYERS)


def test_init_holds_only_the_star_imports_and_version():
    body = source_tree(vacuumdata).body
    docstring, *imports, version = body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [(node.level, node.module, [a.name for a in node.names]) for node in imports
            if isinstance(node, ast.ImportFrom)] == [(1, layer, ["*"]) for layer in EXPORTED]
    assert len(imports) == len(EXPORTED)
    assert isinstance(version, ast.Assign)
    assert [t.id for t in version.targets] == ["__version__"]
    assert isinstance(version.value, ast.Constant)


def test_every_module_is_placed_in_the_layer_order():
    modules = {path.stem for path in SOURCES.glob("*.py")} - {"__init__", "__main__"}
    assert modules <= set(ORDER), f"not placed in the layer order: {sorted(modules - set(ORDER))}"


@pytest.mark.parametrize("layer", ORDER)
def test_relative_imports_reach_only_earlier_layers(layer):
    path = SOURCES / f"{layer}.py"
    wrong = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            wrong += [f"{path.name}:{node.lineno}: {layer} imports {target}"
                      for target in targets if target.split(".")[0] not in ORDER[:ORDER.index(layer)]]
    assert not wrong
