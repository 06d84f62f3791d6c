"""Import hygiene of the crmostow modules: every exported name exists, and
the private names one module takes from another stay on a short list."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import crmostow

MODULES = sorted(info.name for info in pkgutil.iter_modules(crmostow.__path__))

# The private names each module imports from a sibling module.  Most are
# pieces of the exact core's working form; a new entry here is a new
# dependency on a sibling's internals, and should be argued for in review.
PRIVATE_IMPORTS = {
    "acceptance": {"_combo", "_complex_combo"},
    "ambient": {"_qi_of", "_trace_form"},
    "crinv": {"_charpoly_num", "_common_row", "_lincomb", "_trace_form"},
    "parabolic": {"_bracket_closure", "_eigenvalues"},
    "structure": {"_poly_derivative", "_rref_num", "_squarefree_num", "_to_num"},
}


def _private_imports(name):
    source = pathlib.Path(crmostow.__path__[0], f"{name}.py").read_text()
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"crmostow.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_private_imports_stay_on_the_list(name):
    assert _private_imports(name) <= PRIVATE_IMPORTS.get(name, set())
