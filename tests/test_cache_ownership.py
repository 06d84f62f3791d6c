"""Ownership of derived structure: the ambient owns every cached result,
subalgebras are views of it, and reference counting alone frees an
analysis once its last view and its ambient are dropped."""

import gc

import pytest

from crmostow import catalog, cli, parabolic, structure
from crmostow.ambient import AmbientAlgebra
from crmostow.exact import bracket_kernel, trace_annihilator

CASES = [(name, None) for name in catalog.entry_names() if name != "grassmann_pair"] + [
    ("grassmann_pair", {"p": 2, "q": 5, "n": 7, "k": 1})
]
FORBIDDEN = (
    structure.Subalgebra,
    parabolic.ParabolicSubalgebra,
    parabolic.RegularizationTrace,
    AmbientAlgebra,
)


def _fresh(name, params=None):
    """The catalog subalgebra, rebuilt in an ambient of its own."""
    entry = catalog.build(name, params)
    amb = AmbientAlgebra(entry.ambient.blocks)
    return amb, structure.make_subalgebra(amb, entry.subalgebra.basis())


def _analyze(v):
    return cli.build_analysis_report(v, {"catalog": "test"}, seed=11)


def _objects(value):
    """Every object reachable from ``value`` through tuples, lists and dicts."""
    yield value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _objects(key)
            yield from _objects(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _objects(item)


@pytest.mark.parametrize("name,params", CASES)
def test_an_analysis_leaves_no_cycles(name, params):
    catalog.build(name, params)  # its shared ambient lives on, outside the count
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        amb, v = _fresh(name, params)
        _analyze(v)
        del amb, v
        gc.collect()
        left = [o for o in gc.garbage if type(o).__module__.startswith("crmostow")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []


@pytest.mark.parametrize("name,params", CASES)
def test_no_table_holds_a_view_parabolic_trace_or_ambient(name, params):
    amb, v = _fresh(name, params)
    _analyze(v)
    tables = (amb._caches, amb._derived)
    assert amb._caches and amb._derived
    assert [o for t in tables for o in _objects(t) if isinstance(o, FORBIDDEN)] == []


def test_results_survive_a_dropped_view(monkeypatch):
    amb, v = _fresh("su23_f13")
    first = _analyze(v)
    space = v.space
    del v
    assert amb._subalgebras.get(space) is None
    calls = []
    for name, fn in (("trace_annihilator", trace_annihilator), ("bracket_kernel", bracket_kernel)):
        monkeypatch.setattr(
            structure, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
        )
    again = structure.subalgebra_from_space(amb, space)
    assert _analyze(again) == first
    assert calls == []


def test_admissibility_is_memoized_by_data(monkeypatch):
    amb, v = _fresh("su23_f13")
    q = parabolic.minimal_envelope(v)
    key = ("admissible", q.q.space, q.levi, q.nilradical)
    assert v._cache[key] is True
    assert not any(isinstance(o, FORBIDDEN) for o in _objects(v._cache))
    space = q.q.space
    del q
    assert amb._subalgebras.get(space) is None
    checked = []
    monkeypatch.setattr(parabolic, "_admissible", lambda *a: checked.append(a) or True)
    # a parabolic rebuilt on a new view of the same space finds the memo
    again = parabolic.minimal_envelope(v)
    assert parabolic.is_admissible_envelope(v, again)
    assert checked == []
