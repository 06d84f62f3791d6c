"""Each derived subspace once per ambient: analyzing the benchmark's exact
inputs in shared ambients repeats no intersection, σ-image, eigen-split or
Levi-center kernel; and no parabolic is recognized, nor its weights
classified, by work over the whole ambient."""

from collections import Counter

from crmostow import catalog, cli, crinv, exact, parabolic, structure, symspace
from crmostow.ambient import AmbientAlgebra
from crmostow.exact import Subspace

SPECS = [
    (name, None)
    for name in ("su22_f12", "su23_f13", "su23_f12", "so_n_symmetric", "upper_triangular_horocycle")
] + [("grassmann_pair", params) for params in catalog.grassmann_parameter_grid(5)]


def _within(depth, fn):
    """``fn``, counting in ``depth`` the calls under way."""

    def run(*args, **kwargs):
        depth.append(fn)
        try:
            return fn(*args, **kwargs)
        finally:
            depth.pop()

    return run


def _recording(seen, current, fn, depth=None):
    """``fn``, recording the current ambient's blocks with its operands
    while an analysis runs; with ``depth``, only while a call counted there
    is under way."""

    def run(*args):
        if current[0] is not None and (depth is None or depth):
            seen[(current[0], *(tuple(a) if isinstance(a, list) else a for a in args))] += 1
        return fn(*args)

    return run


def test_no_derived_work_repeats(monkeypatch):
    current = [None]
    intersects, misses, projectors, kernels = Counter(), Counter(), Counter(), Counter()
    conj_space = AmbientAlgebra.conj_space

    def conj_miss(amb, s):
        if current[0] is not None:
            misses[(id(amb), s)] += 1
        return conj_space(amb, s)

    in_split, in_center = [], []
    monkeypatch.setattr(Subspace, "intersect", _recording(intersects, current, Subspace.intersect))
    monkeypatch.setattr(AmbientAlgebra, "conj_space", conj_miss)
    monkeypatch.setattr(parabolic, "_eigenprojectors", _within(in_split, parabolic._eigenprojectors))
    monkeypatch.setattr(parabolic, "_center_mats", _within(in_center, parabolic._center_mats))
    monkeypatch.setattr(
        parabolic, "kernel_projector",
        _recording(projectors, current, parabolic.kernel_projector, in_split),
    )
    monkeypatch.setattr(
        parabolic, "bracket_kernel",
        _recording(kernels, current, parabolic.bracket_kernel, in_center),
    )
    ambients = {}
    for name, params in SPECS:
        entry = catalog.build(name, params)
        blocks = entry.ambient.blocks
        amb = ambients.setdefault(blocks, AmbientAlgebra(blocks))
        current[0] = blocks
        v = structure.make_subalgebra(amb, entry.subalgebra.basis())
        cli.build_analysis_report(v, {"catalog": name, "params": params}, seed=11)
        current[0] = None
    for seen in (intersects, misses, projectors, kernels):
        assert seen
        assert [key for key, count in seen.items() if count > 1] == []


def test_parabolics_solve_no_ambient_kernel(monkeypatch):
    # parabolic recognition counts the flag stabilizer's dimension instead of
    # solving for it, and the weight ascent decomposes only the nilradical
    # and its conjugate, never the whole ambient
    in_parts, kernels, ascents, whole = [], [], [], []
    kernel_space, weight_pieces, weight_ascent = (
        exact.kernel_space, parabolic._weight_pieces, parabolic._weight_ascent
    )

    def counting_kernel(*args, **kwargs):
        if in_parts:
            kernels.append(args)
        return kernel_space(*args, **kwargs)

    def recording_pieces(amb, space, z_mats):
        whole.append(space == amb.space)
        return weight_pieces(amb, space, z_mats)

    def counting_ascent(v_nil, start):
        ascents.append(start)
        return weight_ascent(v_nil, start)

    for module in (exact, structure, parabolic, crinv, symspace):
        for name, value in list(vars(module).items()):
            if value is kernel_space:
                monkeypatch.setattr(module, name, counting_kernel)
    monkeypatch.setattr(parabolic, "_parabolic_parts", _within(in_parts, parabolic._parabolic_parts))
    monkeypatch.setattr(parabolic, "_weight_pieces", recording_pieces)
    monkeypatch.setattr(parabolic, "_weight_ascent", counting_ascent)
    ambients = {}
    for name, params in SPECS[:5]:
        entry = catalog.build(name, params)
        blocks = entry.ambient.blocks
        amb = ambients.setdefault(blocks, AmbientAlgebra(blocks))
        v = structure.make_subalgebra(amb, entry.subalgebra.basis())
        cli.build_analysis_report(v, {"catalog": name, "params": params}, seed=11)
    assert ascents and whole
    assert kernels == [] and not any(whole)
