"""Span recorder for the traced benchmark run.

Only the traced run imports this module.  ``install`` rebinds the public
entry points of each crmostow layer, in every crmostow module namespace
that holds them (and ``scipy.optimize``/``scipy.linalg``/``numpy.linalg``
for the numeric kernels), to wrappers that record one span per call:
name, start, end, parent span and operation id.  Spans stay in memory
until ``Recorder.dump`` writes them out.  ``uninstall`` puts the original
objects back.  The program itself is not edited.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

import numpy.linalg
import scipy.linalg
import scipy.optimize

from crmostow import ambient, catalog, cli, crinv, exact, parabolic, structure, symspace

# (layer name, owner, attribute); module-level functions are rebound
# wherever they were imported, class attributes on the class.
_FUNCTIONS = [
    ("exact.bracket", exact, "bracket"),
    ("exact.solve_kernel", exact, "solve_kernel"),
    ("exact.charpoly", exact, "charpoly"),
    ("ambient.special_linear", ambient, "special_linear"),
    ("ambient.block_special_linear", ambient, "block_special_linear"),
    ("structure.make_subalgebra", structure, "make_subalgebra"),
    ("structure.subalgebra_from_space", structure, "subalgebra_from_space"),
    ("structure.normalizer", structure, "normalizer"),
    ("structure.rational_roots", structure, "rational_roots"),
    ("parabolic.is_parabolic", parabolic, "is_parabolic"),
    ("parabolic.regularization", parabolic, "parabolic_regularization"),
    ("parabolic.envelopes", parabolic, "minimal_envelope"),
    ("parabolic.envelopes", parabolic, "maximal_envelope"),
    ("parabolic.largest_intermediate", parabolic, "largest_intermediate"),
    ("parabolic.horocyclic_verdict", parabolic, "horocyclic_verdict"),
    ("crinv.cr_type", crinv, "cr_type"),
    ("crinv.fiber_data", crinv, "fiber_data"),
    ("crinv.levi_report", crinv, "levi_report"),
    ("catalog.build", catalog, "build"),
    ("cli.build_analysis_report", cli, "build_analysis_report"),
    ("symspace.mostow_structure", symspace, "mostow_structure"),
    ("symspace.random_compact_element", symspace, "random_compact_element"),
    ("symspace.mostow_decompose", symspace, "mostow_decompose"),
    ("symspace.exhaustion_phi", symspace, "exhaustion_phi"),
    ("symspace.phi_levi_probe", symspace, "phi_levi_probe"),
]
_METHODS = [
    ("exact.subspace", exact.Subspace, "span"),
    ("exact.subspace", exact.Subspace, "sum"),
    ("exact.subspace", exact.Subspace, "intersect"),
    ("structure.n_reductive_verdict", structure.Subalgebra, "n_reductive_verdict"),
] + [
    ("ambient", ambient.AmbientAlgebra, attr)
    for attr in ("basis", "space", "k0", "p0", "sigma", "conj_space", "beta", "contains", "contains_space")
]
# Third-party kernels the symmetric-space layer calls through module attributes.
_FOREIGN = [
    ("symspace.minimize", scipy.optimize, "minimize"),
    ("symspace.least_squares", scipy.optimize, "least_squares"),
    ("symspace.expm", scipy.linalg, "expm"),
    ("symspace.eigh", scipy.linalg, "eigh"),
    ("symspace.eigh", numpy.linalg, "eigh"),
    ("symspace.eigh", numpy.linalg, "eigvalsh"),
]


class _Counter:
    __slots__ = ("lookups", "hits")

    def __init__(self):
        self.lookups = 0
        self.hits = 0


class _CountingDict(dict):
    """A dict that counts membership tests and ``get`` calls, and their hits."""

    __slots__ = ("counter",)

    def __contains__(self, key):
        found = dict.__contains__(self, key)
        self.counter.lookups += 1
        self.counter.hits += found
        return found

    def get(self, key, default=None):
        found = dict.__contains__(self, key)
        self.counter.lookups += 1
        self.counter.hits += found
        return dict.__getitem__(self, key) if found else default


def _counting(counter: _Counter, data: dict) -> _CountingDict:
    out = _CountingDict(data)
    out.counter = counter
    return out


class Recorder:
    """In-memory spans plus per-layer self time, call counts and optimizer
    statistics, split by phase ("setup" or "timed")."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.phase_of = array("b")
        self._stack: list[list] = []  # [span index, child time]
        self.phase = 0  # 0 setup, 1 timed
        self.op_id = -1
        self.self_time: dict[tuple[int, str], float] = {}
        self.calls: dict[tuple[int, str], int] = {}
        self.optimizer: dict[str, list[int]] = {}  # name -> [calls, nfev, nit, successes]
        self.cache = _Counter()
        self.intern = _Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stats = name in ("symspace.minimize", "symspace.least_squares")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.op.append(self.op_id)
            self.phase_of.append(self.phase)
            self.end.append(0.0)
            frame = [idx, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dur
                key = (self.phase, name)
                self.self_time[key] = self.self_time.get(key, 0.0) + dur - frame[1]
                self.calls[key] = self.calls.get(key, 0) + 1
            if stats:
                row = self.optimizer.setdefault(name, [0, 0, 0, 0])
                row[0] += 1
                row[1] += int(result.nfev)
                row[2] += int(getattr(result, "nit", 0))
                row[3] += bool(result.success)
            return result

        return traced

    # -- installation ----------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module, attr in _FUNCTIONS:
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for mod in [m for key, m in sys.modules.items() if key == "crmostow" or key.startswith("crmostow.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        for name, cls, attr in _METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, property):
                new = property(self.wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            else:
                new = self.wrap(name, raw)
            self._set(cls, attr, new)
        for name, module, attr in _FOREIGN:
            self._set(module, attr, self.wrap(name, getattr(module, attr)))
        self._install_counters()

    def _install_counters(self) -> None:
        """Count lookups of ``AmbientAlgebra._subalgebras`` (interning) and of
        each ``Subalgebra._cache``, on objects created from now on."""
        rec = self
        amb_init = ambient.AmbientAlgebra.__init__
        sub_init = structure.Subalgebra.__init__

        def ambient_init(obj, *args, **kwargs):
            amb_init(obj, *args, **kwargs)
            obj._subalgebras = _counting(rec.intern, obj._subalgebras)

        def subalgebra_init(obj, *args, **kwargs):
            sub_init(obj, *args, **kwargs)
            obj._cache = _counting(rec.cache, obj._cache)

        self._set(ambient.AmbientAlgebra, "__init__", ambient_init)
        self._set(structure.Subalgebra, "__init__", subalgebra_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------
    def layer_metrics(self, timed_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures over the whole traced run (set-up and timed part)."""

        def self_s(*names: str) -> float:
            return sum(v for (_, n), v in self.self_time.items() if n in names)

        def calls(*names: str) -> int:
            return sum(v for (_, n), v in self.calls.items() if n in names)

        def opt(name: str, col: int) -> float:
            row = self.optimizer.get(name, [0, 0, 0, 0])
            return row[col] / row[0] if row[0] else 0.0

        timed_exact = sum(v for (ph, n), v in self.self_time.items() if ph == 1 and n.startswith("exact."))
        out = {}
        for layer in ("exact.bracket", "exact.subspace", "exact.solve_kernel", "exact.charpoly",
                      "structure.rational_roots", "structure.normalizer"):
            out[f"{layer}.calls"] = (calls(layer), "count")
            out[f"{layer}.self_s"] = (self_s(layer), "s")
        out["structure.n_reductive_verdict.self_s"] = (self_s("structure.n_reductive_verdict"), "s")
        out["structure.cache_lookups"] = (self.cache.lookups, "count")
        out["structure.cache_hit_ratio"] = (self.cache.hits / self.cache.lookups if self.cache.lookups else 0.0, "ratio")
        out["structure.intern_lookups"] = (self.intern.lookups, "count")
        out["structure.intern_hit_ratio"] = (self.intern.hits / self.intern.lookups if self.intern.lookups else 0.0, "ratio")
        for layer in ("parabolic.regularization", "parabolic.envelopes", "parabolic.largest_intermediate",
                      "parabolic.horocyclic_verdict", "crinv.cr_type", "crinv.fiber_data", "crinv.levi_report"):
            out[f"{layer}.self_s"] = (self_s(layer), "s")
        out["parabolic.is_parabolic.calls"] = (calls("parabolic.is_parabolic"), "count")
        out["ambient.self_s"] = (self_s(*[n for n in self.names if n.split(".")[0] == "ambient"]), "s")
        out["catalog.build.self_s"] = (self_s("catalog.build"), "s")
        out["cli.build_analysis_report.self_s"] = (self_s("cli.build_analysis_report"), "s")
        out["symspace.minimize.calls"] = (calls("symspace.minimize"), "count")
        out["symspace.minimize.nfev_per_call"] = (opt("symspace.minimize", 1), "count/call")
        out["symspace.minimize.nit_per_call"] = (opt("symspace.minimize", 2), "count/call")
        out["symspace.minimize.success_ratio"] = (opt("symspace.minimize", 3), "ratio")
        out["symspace.least_squares.calls"] = (calls("symspace.least_squares"), "count")
        out["symspace.least_squares.nfev_per_call"] = (opt("symspace.least_squares", 1), "count/call")
        out["symspace.expm.calls"] = (calls("symspace.expm"), "count")
        out["symspace.expm.self_s"] = (self_s("symspace.expm"), "s")
        out["symspace.eigh.calls"] = (calls("symspace.eigh"), "count")
        out["symspace.mostow_structure.self_s"] = (self_s("symspace.mostow_structure"), "s")
        out["exact.timed_self_frac"] = (timed_exact / timed_s if timed_s > 0 else 0.0, "ratio")
        return out

    def dump(self, path, provenance: dict) -> None:
        """Write every span to a gzip file: one JSON header line (provenance,
        span names, column names), then one comma-separated line per span."""
        header = {
            "provenance": provenance,
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op", "phase"],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for row in zip(self.name_id, self.start, self.end, self.parent, self.op, self.phase_of):
                fh.write("%d,%r,%r,%d,%d,%d\n" % row)
