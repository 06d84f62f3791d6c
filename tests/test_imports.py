"""Import hygiene of the crmostow modules: every exported name exists, and
the private names one module takes from another stay on a short list."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import crmostow

MODULES = sorted(info.name for info in pkgutil.iter_modules(crmostow.__path__))

# The private names each module imports from a sibling module; a new entry
# here is a new dependency on a sibling's internals, and should be argued for
# in review.  None of them is a piece of the exact core's working form.
PRIVATE_IMPORTS = {
    "acceptance": {"_combo", "_complex_combo"},
    # ``_memo`` is the one way into a subalgebra's cache, and ``_derived``
    # the one way into the ambient's table of results derived from one
    # operand: the parabolic machinery memoizes its results through them,
    # and they keep every cached value plain data, so the ambient that owns
    # the caches holds no cycle.
    "parabolic": {"_bracket_closure", "_derived", "_eigenvalues", "_memo"},
}

# The ambient's tables of derived results and a view's cache dict.  Only
# structure.py reads or writes them; ambient.py declares them, empty, in
# ``AmbientAlgebra.__init__`` and touches them nowhere else.
CACHE_TABLES = {"_cache", "_caches", "_subalgebras", "_derived"}

# The attributes through which ExactMatrix and Subspace hold and read their
# Gaussian-integer numerators and denominators: only exact.py touches them.
WORKING_FORM = {
    "_terms", "_den", "_make", "_apply", "_row_nums", "_nonzero_by_row",
    "_coords", "_irows", "_residue_mat", "_residue",
}


def _tree(name):
    return ast.parse(pathlib.Path(crmostow.__path__[0], f"{name}.py").read_text())


def _private_imports(name):
    return {
        alias.name
        for node in ast.walk(_tree(name))
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


@pytest.mark.parametrize("name", [m for m in MODULES if m != "exact"])
def test_only_exact_reads_the_working_form(name):
    read = {
        node.attr
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute) and node.attr in WORKING_FORM
    }
    assert read == set()


def _cache_accesses(name):
    tree = _tree(name)
    declared = set()
    if name == "ambient":
        init = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        )
        declared = {
            id(node) for node in ast.walk(init)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in CACHE_TABLES and id(node) not in declared
    }


@pytest.mark.parametrize("name", [m for m in MODULES if m != "structure"])
def test_only_structure_touches_the_caches(name):
    assert _cache_accesses(name) == set()

