"""Tests for the parabolic machinery: flags, regularization, envelopes."""

import itertools
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings

from crmostow import catalog, parabolic
from crmostow.ambient import AmbientAlgebra, block_special_linear, special_linear
from crmostow.exact import QI, ExactMatrix, Subspace, bracket, kernel_space
from crmostow.parabolic import (
    HorocyclicVerdict,
    combine_parabolics,
    horocyclic_verdict,
    is_admissible_envelope,
    is_horocyclic,
    is_parabolic,
    largest_intermediate,
    maximal_envelope,
    minimal_envelope,
    parabolic_regularization,
    strengthen,
    _center_mats,
    _weight_pieces,
)
from crmostow.structure import make_subalgebra, normalizer, subalgebra_from_space
from test_metamorphic import SPECS, _cayley, _cayley_transform


def _E(n, i, j, c=1):
    rows = [[QI(0)] * n for _ in range(n)]
    rows[i][j] = QI(c)
    return ExactMatrix(rows)


def _diag(*vals):
    n = len(vals)
    rows = [[QI(0)] * n for _ in range(n)]
    for i, v in enumerate(vals):
        rows[i][i] = QI(v)
    return ExactMatrix(rows)


@pytest.fixture(scope="module")
def sl2():
    return special_linear(2)


@pytest.fixture(scope="module")
def sl3():
    return special_linear(3)


@pytest.fixture(scope="module")
def gl22():
    return block_special_linear([2, 2])


@pytest.fixture(scope="module")
def gl23():
    return block_special_linear([2, 3])


@pytest.fixture(scope="module")
def borel2(sl2):
    return make_subalgebra(sl2, [_diag(1, -1), _E(2, 0, 1)])


@pytest.fixture(scope="module")
def pair22(gl22):
    # one diagonal direction plus a coupled nilpotent across the two blocks
    return make_subalgebra(gl22, [_diag(1, -1, 1, -1), _E(4, 0, 1) + _E(4, 2, 3)])


@pytest.fixture(scope="module")
def flag13(gl23):
    # stabilizer pair with coupled top rows and one extra nilpotent direction
    return make_subalgebra(
        gl23,
        [
            _diag(1, 0, 1, -2, 0),
            _diag(0, 1, 0, -2, 1),
            _E(5, 0, 1) + _E(5, 2, 4),
            _E(5, 3, 4),
        ],
    )


@pytest.fixture(scope="module")
def flag12(gl23):
    # coupled pair in matching rows plus the full last column of the 3-block
    return make_subalgebra(
        gl23,
        [
            _diag(1, 0, 1, 0, -2),
            _diag(0, 1, 0, 1, -2),
            _E(5, 0, 1) + _E(5, 2, 3),
            _E(5, 2, 4),
            _E(5, 3, 4),
        ],
    )


# ---------------------------------------------------------------------------
# is_parabolic
# ---------------------------------------------------------------------------


def test_borel_sl2_is_parabolic(sl2, borel2):
    ok, p = is_parabolic(borel2)
    assert ok
    assert p.levi.dim == 1
    assert p.nilradical.dim == 1
    assert p.nilradical.contains_mat(_E(2, 0, 1))
    assert p.flag_dims == (1, 2)
    assert p.invariant_flag == (ExactMatrix([[1, 0], [0, 0]]), ExactMatrix.identity(2))


def test_cartan_sl2_not_parabolic(sl2):
    cartan = make_subalgebra(sl2, [_diag(1, -1)])
    ok, witness = is_parabolic(cartan)
    assert not ok and witness is None


def test_whole_algebra_is_parabolic(sl3, gl22):
    for amb in (sl3, gl22):
        whole = subalgebra_from_space(amb, amb.space, verified=True)
        ok, p = is_parabolic(whole)
        assert ok
        assert p.nilradical.dim == 0
        assert p.levi.dim == amb.dim
        assert p.flag_dims == (amb.n,)
        assert p.invariant_flag == (ExactMatrix.identity(amb.n),)


def test_noncoordinate_line_stabilizer_is_parabolic(sl2):
    # stabilizer of the span of e1+e2:2-dimensional, flag not axis-aligned
    a = ExactMatrix([[QI(1), QI(0)], [QI(2), QI(-1)]])
    b = ExactMatrix([[QI(0), QI(1)], [QI(1), QI(0)]])
    q = make_subalgebra(sl2, [a, b])
    ok, p = is_parabolic(q)
    assert ok
    half = QI(Fraction(1, 2))
    assert p.invariant_flag[0] == ExactMatrix([[half, half], [half, half]])
    assert p.levi.dim == 1 and p.nilradical.dim == 1


@pytest.mark.parametrize(
    "name, params",
    [
        ("upper_triangular_horocycle", None),
        ("su23_f12", None),
        ("grassmann_pair", {"p": 1, "q": 2, "n": 3, "k": 1}),
    ],
    ids=["horocycle", "su23_f12", "grassmann-1231"],
)
def test_flag_is_equivariant_under_unitary_conjugation(name, params):
    # the flag of g·q·g* is g·Π·g* for a unitary g preserving the blocks
    entry = catalog.build(name, params)
    values = itertools.cycle([Fraction(k, d) for k, d in ((1, 2), (-1, 3), (2, 3), (1, 1), (-2, 3))])
    g = _cayley_transform(entry.ambient.blocks, lambda: next(values))
    g_star = g.star()
    assert g @ g_star == ExactMatrix.identity(g.rows)
    moved = make_subalgebra(entry.ambient, [g @ b @ g_star for b in entry.subalgebra.basis()])
    p, p_moved = minimal_envelope(entry.subalgebra), minimal_envelope(moved)
    assert p_moved.invariant_flag == tuple(g @ step @ g_star for step in p.invariant_flag)
    assert p_moved.flag_dims == p.flag_dims


@cache
def _levi_weight_data(index):
    """The ambient, the center of L(v) and σ(nr v) for spec ``index``."""
    name, params = SPECS[index]
    v = catalog.build(name, params).subalgebra
    return v.ambient, _center_mats(v.levi_part.space), v.ambient.conj_space(v.nr)


@settings(max_examples=8, deadline=None)
@given(_cayley())
def test_weight_pieces_are_the_joint_eigenspaces(case):
    # the pieces under a Cayley-conjugated Levi center are the kernels of
    # x ↦ [z_j, x] − w_j·x, and together they fill the space
    index, g = case
    amb, center, conj_nil = _levi_weight_data(index)
    g_star = g.star()
    z_mats = [g @ z @ g_star for z in center]
    moved_nil = Subspace.span([g @ b @ g_star for b in conj_nil.basis()], amb.n)
    for space in (amb.space, moved_nil):
        basis = space.basis()
        pieces = _weight_pieces(amb, space, z_mats)
        assert sum(piece.dim for _, piece in pieces) == space.dim
        for wt, piece in pieces:
            images = [[bracket(z, x) - x.scale(w) for x in basis] for z, w in zip(z_mats, wt)]
            assert piece == kernel_space(basis, images, amb.n)


@pytest.mark.parametrize(
    "z",
    [
        ExactMatrix([[0, 1], [0, 0]]),
        ExactMatrix([[1, 1], [0, -1]]),
        ExactMatrix([[0, 1], [2, 0]]),
    ],
    ids=["nilpotent", "non-normal", "irrational"],
)
def test_weight_pieces_need_a_normal_rational_center(sl2, z):
    with pytest.raises(ArithmeticError, match="weight space decomposition failed"):
        _weight_pieces(sl2, sl2.space, [z])


def test_seven_dim_normalizer_not_parabolic(gl23, flag13):
    # the normalizer of the coupled nilpotent pair keeps a diagonal coupling
    # constraint, so it is strictly smaller than any flag stabilizer
    q = normalizer(gl23, flag13.nr)
    assert q.dim == 7
    ok, witness = is_parabolic(q)
    assert not ok and witness is None


def test_nine_dim_envelope_is_parabolic(gl23):
    gens = [
        _diag(1, 0, 0, 0, -1),
        _diag(0, 1, 0, 0, -1),
        _diag(0, 0, 1, 0, -1),
        _diag(0, 0, 0, 1, -1),
        _E(5, 0, 1),
        _E(5, 2, 3),
        _E(5, 3, 2),
        _E(5, 2, 4),
        _E(5, 3, 4),
    ]
    q = make_subalgebra(gl23, gens)
    ok, p = is_parabolic(q)
    assert ok
    assert p.flag_dims == (3, 5)
    assert p.levi.dim == 6 and p.nilradical.dim == 3


# ---------------------------------------------------------------------------
# parabolic_regularization
# ---------------------------------------------------------------------------


def test_regularization_of_strict_uppers(sl3):
    v = make_subalgebra(sl3, [_E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)])
    trace = parabolic_regularization(v)
    assert [c.dim for c in trace.chain] == [3, 5]
    assert trace.steps == 1
    assert trace.fixed_point.dim == 5
    assert trace.fixed_point.contains(_diag(1, -1, 0))
    ok, _ = is_parabolic(trace.fixed_point)
    assert ok


def test_regularization_fixes_parabolics(sl2, borel2):
    trace = parabolic_regularization(borel2)
    assert trace.steps == 0
    assert trace.chain == (borel2,)
    assert trace.fixed_point.space == borel2.space


def test_regularization_chain_pair22(pair22):
    trace = parabolic_regularization(pair22)
    assert [c.dim for c in trace.chain] == [2, 4, 5]
    assert trace.fixed_point.contains_space(pair22.space)
    assert trace.fixed_point.nr.contains_space(pair22.nr)


def test_regularization_chain_flag13(flag13):
    trace = parabolic_regularization(flag13)
    assert [c.dim for c in trace.chain] == [4, 7, 8]
    ok, p = is_parabolic(trace.fixed_point)
    assert ok
    assert p.flag_dims == (2, 4, 5)


# ---------------------------------------------------------------------------
# minimal and maximal envelopes
# ---------------------------------------------------------------------------


def test_minimal_envelope_pair22(pair22):
    p = minimal_envelope(pair22)
    assert p.dim == 5
    assert p.flag_dims == (2, 4)
    assert is_admissible_envelope(pair22, p)


def test_minimal_envelope_flag13(gl23, flag13):
    p = minimal_envelope(flag13)
    assert p.dim == 8
    assert p.flag_dims == (2, 4, 5)
    assert is_admissible_envelope(flag13, p)
    assert p.nilradical.dim == 4


def test_maximal_envelope_flag13(gl23, flag13):
    pmin = minimal_envelope(flag13)
    pmax = maximal_envelope(flag13, pmin)
    assert pmax.dim == 9
    assert pmax.q.contains(_E(5, 2, 3))
    assert pmax.q.contains(_E(5, 3, 2))
    assert pmax.nilradical.dim == 3
    for m in (_E(5, 0, 1), _E(5, 2, 4), _E(5, 3, 4)):
        assert pmax.nilradical.contains_mat(m)
    assert is_admissible_envelope(flag13, pmax)
    assert pmin.dim <= pmax.dim
    # the maximal envelope is strictly larger than the normalizer of the
    # nilpotent part, which is not even parabolic here
    assert normalizer(gl23, flag13.nr).dim == 7


def test_su23_f13_normalizer_certificate():
    """Hand-checkable spans behind acceptance check 1 for ``su23_f13``.

    n(v) = span(E01 + E24, E34).  Its normalizer in s(gl2 x gl3) has
    dimension 7, below the dimension 3 + 6 - 1 = 8 of a Borel subalgebra,
    so it is not parabolic.  Its normalizer in all of sl(5) has dimension
    11, below the dimension 4 + 10 = 14 of a Borel subalgebra of sl(5), so
    it is not parabolic either and the mismatch is not a mix-up of ambient
    algebras.  Regularization goes 4 -> 7 -> 8 and stops at the minimal
    envelope; weight ascent then reaches the 9-dimensional maximal one.
    """
    entry = catalog.build("su23_f13")
    v = entry.subalgebra

    def e(i, j, c=1):
        return _E(5, i, j, c)

    def span(mats):
        return Subspace.span(mats, 5)

    assert v.nr == span([e(0, 1) + e(2, 4), e(3, 4)])

    in_block = span(
        [
            e(0, 0) - e(4, 4),
            e(0, 1),
            e(1, 1) + e(3, 3, -2) + e(4, 4),
            e(2, 2) + e(3, 3, -2) + e(4, 4),
            e(2, 4),
            e(3, 2),
            e(3, 4),
        ]
    )
    n_block = normalizer(entry.ambient, v.nr)
    assert n_block.space == in_block and n_block.dim == 7
    assert not is_parabolic(n_block)[0]

    in_sl5 = span(
        [
            e(0, 0) - e(4, 4),
            e(0, 1),
            e(0, 2) + e(1, 4),
            e(0, 4),
            e(1, 1) + e(3, 3, -2) + e(4, 4),
            e(2, 1),
            e(2, 2) + e(3, 3, -2) + e(4, 4),
            e(2, 4),
            e(3, 1),
            e(3, 2),
            e(3, 4),
        ]
    )
    n_sl5 = normalizer(special_linear(5), v.nr)
    assert n_sl5.space == in_sl5 and n_sl5.dim == 11
    assert not is_parabolic(n_sl5)[0]

    q_min_span = span(
        [
            e(0, 0) - e(4, 4),
            e(1, 1) - e(4, 4),
            e(2, 2) - e(4, 4),
            e(3, 3) - e(4, 4),
            e(0, 1),
            e(2, 4),
            e(3, 2),
            e(3, 4),
        ]
    )
    trace = parabolic_regularization(v)
    assert [c.dim for c in trace.chain] == [4, 7, 8]
    assert trace.chain[1].space == in_block
    q_min = minimal_envelope(v)
    assert trace.fixed_point.space == q_min.q.space == q_min_span

    q_max = maximal_envelope(v, q_min)
    assert q_max.q.space == q_min_span.sum(span([e(2, 3)]))
    assert q_max.dim == 9


def _envelope_summary(v):
    q_min = minimal_envelope(v)
    return [
        (p.dim, p.nilradical.dim, p.flag_dims)
        for p in (q_min, maximal_envelope(v, q_min))
    ]


@pytest.mark.xfail(
    strict=True,
    reason="nr(v) has no component in either simple weight, and maximal_envelope "
    "merges whichever missing weight comes first in its sort order",
)
def test_maximal_envelope_is_invariant_under_unitary_conjugation(sl3):
    # the permutation swapping e2 and e3 preserves the compact form and maps
    # span(h, E13) to span(h, E12); q_max comes out with flag [2, 3] and [1, 3]
    swap = ExactMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    cartan = [_diag(1, -1, 0), _diag(0, 1, -1)]
    v = make_subalgebra(sl3, cartan + [_E(3, 0, 2)])
    moved = make_subalgebra(sl3, [swap @ b @ swap for b in v.basis()])
    assert moved.space == make_subalgebra(sl3, cartan + [_E(3, 0, 1)]).space
    assert _envelope_summary(v) == _envelope_summary(moved)


def test_maximal_envelope_fixes_split_parabolics(sl2, borel2, pair22):
    for v in (borel2, parabolic_regularization(pair22).fixed_point):
        p = minimal_envelope(v)
        assert p.q.space == v.space
        q = maximal_envelope(v, p)
        assert q.q.space == v.space


def test_envelope_requires_admissibility(gl23, flag13):
    whole = subalgebra_from_space(gl23, gl23.space, verified=True)
    _, pk = is_parabolic(whole)
    assert not is_admissible_envelope(flag13, pk)
    with pytest.raises(ValueError, match="not in P0"):
        maximal_envelope(flag13, pk)


# ---------------------------------------------------------------------------
# strengthen
# ---------------------------------------------------------------------------


def test_strengthen_flag13(gl23, flag13):
    pmin = minimal_envelope(flag13)
    pmax = maximal_envelope(flag13, pmin)
    tilde_max = strengthen(flag13, pmax)
    assert tilde_max.dim == 5
    for m in (_E(5, 0, 1), _E(5, 2, 4), _E(5, 3, 4)):
        assert tilde_max.contains(m)
    tilde_min = strengthen(flag13, pmin)
    assert tilde_min.dim == 6
    # a larger envelope has a smaller nilradical, hence a smaller enlargement
    assert tilde_min.contains_space(tilde_max.space)
    assert tilde_max.levi_part.space == flag13.levi_part.space


def test_strengthen_identity_when_nilradical_matches(sl3):
    borel = make_subalgebra(
        sl3, [_diag(1, -1, 0), _diag(0, 1, -1), _E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)]
    )
    ok, p = is_parabolic(borel)
    assert ok
    assert strengthen(borel, p).space == borel.space


def test_strengthen_rejects_non_envelope(gl23, flag13):
    whole = subalgebra_from_space(gl23, gl23.space, verified=True)
    _, pk = is_parabolic(whole)
    with pytest.raises(ValueError, match="not in P0"):
        strengthen(flag13, pk)


# ---------------------------------------------------------------------------
# combine_parabolics
# ---------------------------------------------------------------------------


def test_combine_same_borel(sl2, borel2):
    _, p = is_parabolic(borel2)
    comb = combine_parabolics(p, p)
    assert comb.q.space == borel2.space


def test_combine_opposite_borels(sl2, borel2):
    lower = make_subalgebra(sl2, [_diag(1, -1), _E(2, 1, 0)])
    _, pu = is_parabolic(borel2)
    _, pl = is_parabolic(lower)
    comb = combine_parabolics(pu, pl)
    assert comb.q.space == borel2.space
    comb_rev = combine_parabolics(pl, pu)
    assert comb_rev.q.space == lower.space


def test_combine_line_stabilizers_sl3(sl3):
    # stabilizers of the first and second coordinate lines
    q1 = make_subalgebra(
        sl3,
        [_diag(1, -1, 0), _diag(0, 1, -1), _E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2), _E(3, 2, 1)],
    )
    q2 = make_subalgebra(
        sl3,
        [_diag(1, -1, 0), _diag(0, 1, -1), _E(3, 1, 0), _E(3, 1, 2), _E(3, 0, 2), _E(3, 2, 0)],
    )
    _, p1 = is_parabolic(q1)
    _, p2 = is_parabolic(q2)
    comb = combine_parabolics(p1, p2)
    assert comb.dim == 5
    assert comb.flag_dims == (1, 2, 3)


def test_combine_rejects_mixed_ambients(sl2, sl3, borel2):
    _, p2 = is_parabolic(borel2)
    borel3 = make_subalgebra(
        sl3, [_diag(1, -1, 0), _diag(0, 1, -1), _E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)]
    )
    _, p3 = is_parabolic(borel3)
    with pytest.raises(ValueError, match="ambient mismatch"):
        combine_parabolics(p2, p3)


# ---------------------------------------------------------------------------
# is_horocyclic
# ---------------------------------------------------------------------------


def test_zero_space_is_horocyclic(sl2):
    ok, witness = is_horocyclic(sl2, Subspace.zero(2))
    assert ok
    assert witness.q.space == sl2.space


def test_strict_uppers_are_horocyclic(sl3):
    s = Subspace.span([_E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)], 3)
    ok, witness = is_horocyclic(sl3, s)
    assert ok
    assert witness.dim == 5
    assert witness.nilradical == s


def test_coupled_pair_not_horocyclic(gl22, pair22):
    ok, witness = is_horocyclic(gl22, pair22.nr)
    assert not ok and witness is None


def test_uncoupled_column_is_horocyclic(gl23):
    s = Subspace.span([_E(5, 2, 4), _E(5, 3, 4)], 5)
    ok, witness = is_horocyclic(gl23, s)
    assert ok
    assert witness.dim == 10
    assert witness.nilradical == s


def test_horocyclic_rejects_non_nilpotent(sl2):
    with pytest.raises(ValueError, match="not nilpotent"):
        is_horocyclic(sl2, Subspace.span([_diag(1, -1)], 2))


# ---------------------------------------------------------------------------
# largest intermediate subalgebra
# ---------------------------------------------------------------------------


def test_largest_intermediate_pair22(gl22, pair22):
    w = largest_intermediate(pair22)
    assert w.dim == 3
    assert w.contains(_E(4, 0, 1) + _E(4, 2, 3))
    assert w.contains(_E(4, 1, 0) + _E(4, 3, 2))
    assert w.contains(_diag(1, -1, 1, -1))


def test_largest_intermediate_flag13_is_input(flag13):
    w = largest_intermediate(flag13)
    assert w.space == flag13.space


def test_largest_intermediate_flag12(gl23, flag12):
    w = largest_intermediate(flag12)
    assert w.dim == 6
    assert w.contains_space(flag12.space)
    assert w.contains(_E(5, 1, 0) + _E(5, 3, 2))
    assert w.nr.dim == 2
    assert w.nr.contains_mat(_E(5, 2, 4))
    assert w.nr.contains_mat(_E(5, 3, 4))


def test_largest_intermediate_of_borel_is_whole(sl2, borel2):
    w = largest_intermediate(borel2)
    assert w.dim == 3


# ---------------------------------------------------------------------------
# horocyclic verdicts
# ---------------------------------------------------------------------------


def _check_verdict_invariant(v: HorocyclicVerdict):
    if v.horocyclic:
        assert v.witness is not None
        assert v.witness.nilradical == v.nilpotent_part
    else:
        assert v.witness is None


def test_verdict_pair22(pair22):
    hv = horocyclic_verdict(pair22)
    assert hv.horocyclic and not hv.strictly_horocyclic
    assert hv.nilpotent_part.dim == 0
    assert hv.intermediate.dim == 3
    _check_verdict_invariant(hv)


def test_verdict_flag13(flag13):
    hv = horocyclic_verdict(flag13)
    assert not hv.horocyclic and not hv.strictly_horocyclic
    assert hv.intermediate.space == flag13.space
    _check_verdict_invariant(hv)


def test_verdict_flag12(flag12):
    hv = horocyclic_verdict(flag12)
    assert hv.horocyclic and not hv.strictly_horocyclic
    assert hv.nilpotent_part.dim == 2
    assert hv.witness.dim == 10
    _check_verdict_invariant(hv)


# ---------------------------------------------------------------------------
# a full pattern family member: two-block column pattern in sl4
# ---------------------------------------------------------------------------


def test_column_pattern_sl4_pipeline():
    amb = special_linear(4)
    gens = [
        _diag(1, 0, 0, -1),
        _diag(0, 1, 0, -1),
        _diag(0, 0, 1, -1),
        _E(4, 1, 2),
        _E(4, 2, 1),
        _E(4, 0, 3),
        _E(4, 1, 3),
        _E(4, 2, 3),
    ]
    v = make_subalgebra(amb, gens)
    assert v.dim == 8
    assert v.n_reductive_verdict.ok
    assert v.nr.dim == 3

    trace = parabolic_regularization(v)
    assert [c.dim for c in trace.chain] == [8, 12]
    pmin = minimal_envelope(v)
    assert pmin.dim == 12
    assert pmin.nilradical == v.nr
    pmax = maximal_envelope(v, pmin)
    assert pmax.q.space == pmin.q.space
    assert strengthen(v, pmax).space == v.space

    w = largest_intermediate(v)
    assert w.space == v.space
    hv = horocyclic_verdict(v)
    assert hv.horocyclic and hv.strictly_horocyclic
    assert hv.witness.dim == 12


@pytest.mark.parametrize(
    "name, params",
    [
        ("su22_f12", None),
        ("su23_f13", None),
        ("su23_f12", None),
        ("grassmann_pair", {"p": 1, "q": 2, "n": 3, "k": 1}),
    ],
)
def test_module_closure_brackets_each_direction_once(monkeypatch, name, params):
    # a fresh ambient, so that no cached envelope skips the closures
    entry = catalog.build(name, params)
    v = make_subalgebra(AmbientAlgebra(entry.ambient.blocks), entry.subalgebra.basis())
    made = [0]
    calls = []
    real_space, real_closure = parabolic.bracket_space, parabolic._module_closure

    def counting_space(a, b):
        made[0] += a.dim * b.dim  # the pairs of basis elements bracketed, at most
        return real_space(a, b)

    def recording_closure(act, seed):
        before = made[0]
        out = real_closure(act, seed)
        calls.append((made[0] - before, act.dim * out.dim))
        return out

    monkeypatch.setattr(parabolic, "bracket_space", counting_space)
    monkeypatch.setattr(parabolic, "_module_closure", recording_closure)
    largest_intermediate(v)
    maximal_envelope(v, minimal_envelope(v))
    assert calls
    assert all(count <= bound for count, bound in calls), calls
