"""Tests for ambient algebras and subalgebra structure theory."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crmostow import catalog, structure
from crmostow.ambient import AmbientAlgebra, block_special_linear, special_linear
from crmostow.errors import ClosureError, IrrationalWeightsError
from crmostow.exact import (
    QI,
    ExactMatrix,
    Subspace,
    bracket,
    bracket_kernel,
    bracket_space,
    charpoly,
    semisimple_part,
)
from crmostow.structure import (
    make_subalgebra,
    normalizer,
    rational_roots,
    subalgebra_from_space,
)


def _E(n, i, j):
    return ExactMatrix.unit(n, i, j)


def _diag(*vals):
    return ExactMatrix.diagonal(list(vals))


# ---------------------------------------------------------------------------
# ambient algebras
# ---------------------------------------------------------------------------


def test_special_linear_dimensions():
    a = special_linear(3)
    assert a.space.dim == 8
    assert a.k0.dim == 8
    assert a.p0.dim == 8
    assert a.dim == 8


def test_block_ambient_dimensions():
    a = block_special_linear([2, 2])
    assert a.space.dim == 7
    assert a.k0.dim == 7
    assert a.p0.dim == 7
    assert a.contains(_E(4, 0, 1))
    assert not a.contains(_E(4, 0, 2))
    assert a.contains(_diag(1, -1, 0, 0))
    assert not a.contains(_diag(1, 0, 0, 0))


def test_ambient_interning():
    assert special_linear(4) is special_linear(4)
    assert block_special_linear((2, 3)) is block_special_linear([2, 3])


def test_k0_p0_split_k():
    a = block_special_linear([2, 1])
    total = a.k0.sum(a.p0)
    assert total == a.space.realify()
    assert a.k0.intersect(a.p0).dim == 0


def test_sigma_involution_and_beta():
    a = special_linear(2)
    for m in a.basis():
        assert a.sigma(a.sigma(m)) == m
        assert a.contains(a.sigma(m))
    x, y = _E(2, 0, 1), _E(2, 1, 0)
    assert a.beta(x, y) == QI(1)
    assert a.beta(x, x) == QI(0)
    h = _diag(1, -1)
    assert a.beta(h, h) == QI(2)


def test_sigma_fixes_k0_negates_p0():
    a = special_linear(3)
    for m in a.k0.basis():
        assert a.sigma(m) == m
    for m in a.p0.basis():
        assert a.sigma(m) == -m


# ---------------------------------------------------------------------------
# subalgebra construction
# ---------------------------------------------------------------------------


def test_make_subalgebra_single_nilpotent():
    a = special_linear(2)
    v = make_subalgebra(a, [_E(2, 0, 1)])
    assert v.dim == 1


def test_make_subalgebra_close_up_generates_sl2():
    a = special_linear(2)
    v = make_subalgebra(a, [_E(2, 0, 1), _E(2, 1, 0)], mode="close_up")
    assert v.dim == 3
    assert v.space == a.space


def test_make_subalgebra_rejects_open_span():
    a = special_linear(2)
    with pytest.raises(ClosureError) as info:
        make_subalgebra(a, [_E(2, 0, 1), _E(2, 1, 0)])
    assert "not closed under bracket" in str(info.value)
    assert info.value.left is not None and info.value.right is not None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_error_names_the_first_open_pair_of_a_row_major_scan(data):
    n = data.draw(st.integers(2, 4))
    amb = special_linear(n)
    units = amb.basis()
    picks = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=5, unique_by=id))
    coeffs = st.integers(-2, 2).filter(bool)
    gens = [g.scale(data.draw(coeffs)) + units[data.draw(st.integers(0, len(units) - 1))]
            for g in picks]
    space = Subspace.span(gens, n)
    mats = space.basis()
    scan = next(
        ((x, y) for i, x in enumerate(mats) for y in mats[i + 1:]
         if not space.contains_mat(bracket(x, y))),
        None,
    )
    if scan is None:
        assert subalgebra_from_space(amb, space).space == space
    else:
        with pytest.raises(ClosureError) as info:
            subalgebra_from_space(amb, space)
        assert (info.value.left, info.value.right) == scan


def test_make_subalgebra_rejects_outside_ambient():
    a = block_special_linear([2, 2])
    with pytest.raises(ValueError, match="not inside ambient"):
        make_subalgebra(a, [_E(4, 0, 2)])


def test_displayed_flag_13_basis_dim():
    a = block_special_linear([2, 3])
    gens = [
        _diag(1, 0, 1, -2, 0),
        _diag(0, 1, 0, -2, 1),
        _E(5, 0, 1) + _E(5, 2, 4),
        _E(5, 3, 4),
    ]
    v = make_subalgebra(a, gens)
    assert v.dim == 4


def test_subalgebra_interning():
    a = special_linear(2)
    v1 = make_subalgebra(a, [_E(2, 0, 1)])
    v2 = make_subalgebra(a, [_E(2, 0, 1).scale(7)])
    assert v1 is v2


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------


def test_radical_semisimple_is_zero():
    a = special_linear(2)
    sl2 = subalgebra_from_space(a, a.space)
    assert sl2.radical.dim == 0


def test_radical_solvable_is_everything():
    a = special_linear(2)
    borel = make_subalgebra(a, [_diag(1, -1), _E(2, 0, 1)])
    assert borel.radical == borel.space


def test_radical_su22_entry():
    a = block_special_linear([2, 2])
    v = make_subalgebra(a, [_diag(1, -1, 1, -1), _E(4, 0, 1) + _E(4, 2, 3)])
    assert v.radical == v.space
    assert v.dim == 2


def test_radical_of_parabolic_in_sl3():
    a = special_linear(3)
    q = make_subalgebra(
        a,
        [
            _E(3, 0, 1), _E(3, 1, 0), _diag(1, -1, 0), _diag(0, 1, -1),
            _E(3, 0, 2), _E(3, 1, 2),
        ],
    )
    rad = q.radical
    # nilradical (2) plus the central torus direction of the Levi (1)
    assert rad.dim == 3
    assert rad.contains_mat(_E(3, 0, 2))
    assert rad.contains_mat(_E(3, 1, 2))
    assert rad.contains_mat(_diag(1, 1, -2))


# ---------------------------------------------------------------------------
# nilpotent radical
# ---------------------------------------------------------------------------


def test_nr_borel_sl2():
    a = special_linear(2)
    borel = make_subalgebra(a, [_diag(1, -1), _E(2, 0, 1)])
    assert borel.nr == Subspace.span([_E(2, 0, 1)], 2)


def test_nr_cartan_sl3_is_zero():
    a = special_linear(3)
    cartan = make_subalgebra(a, [_diag(1, -1, 0), _diag(0, 1, -1)])
    assert cartan.radical == cartan.space
    assert cartan.nr.dim == 0


def test_nr_su22_entry():
    a = block_special_linear([2, 2])
    v = make_subalgebra(a, [_diag(1, -1, 1, -1), _E(4, 0, 1) + _E(4, 2, 3)])
    assert v.nr == Subspace.span([_E(4, 0, 1) + _E(4, 2, 3)], 4)


def test_nr_strict_uppers():
    a = special_linear(3)
    v = make_subalgebra(a, [_E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)])
    assert v.nr == v.space


def test_nr_complex_weights():
    # rad is spanned by a semisimple element with Gaussian eigenvalues
    a = special_linear(2)
    v = make_subalgebra(a, [_diag(QI(0, 1), QI(0, -1))])
    assert v.nr.dim == 0
    # the same torus with a root vector: Gaussian weights, nr nonzero
    v = make_subalgebra(a, [_diag(QI(0, 1), QI(0, -1)), _E(2, 0, 1)])
    assert v.nr == Subspace.span([_E(2, 0, 1)], 2)


def test_nr_irrational_weights():
    # the basis of the CLI's irrational spec: [[0, 1], [2, 0]] has
    # eigenvalues ±sqrt(2), so rad's weights leave Q(i)
    a = special_linear(3)
    v = make_subalgebra(a, [_E(3, 0, 1) + _E(3, 1, 0).scale(2), _E(3, 0, 2), _E(3, 1, 2)])
    with pytest.raises(IrrationalWeightsError):
        v.nr


def test_nr_irrational_weights_off_the_canonical_basis():
    # the same subalgebra conjugated by g: no canonical basis vector of rad
    # is a multiple of the irrational direction g·x·g⁻¹ any more
    a = special_linear(3)
    x = _E(3, 0, 1) + _E(3, 1, 0).scale(2)
    g = ExactMatrix([[1, 0, 0], [1, 1, 0], [2, 1, 1]])
    g_inv = g.inverse()
    v = make_subalgebra(a, [g @ m @ g_inv for m in (x, _E(3, 0, 2), _E(3, 1, 2))])
    moved = Subspace.span([g @ x @ g_inv], 3)
    assert all(Subspace.span([b], 3) != moved for b in v.radical.basis())
    with pytest.raises(IrrationalWeightsError):
        v.nr


@pytest.mark.parametrize(
    "name, params",
    [
        ("su23_f13", None),
        ("su23_f12", None),
        ("upper_triangular_horocycle", None),
        ("grassmann_pair", {"p": 2, "q": 3, "n": 4, "k": 1}),
    ],
)
def test_nr_checks_the_weights_on_a_complement_only(monkeypatch, name, params):
    # a fresh ambient, so that no memoized eigenvalue hides a charpoly
    entry = catalog.build(name, params)
    v = make_subalgebra(AmbientAlgebra(entry.ambient.blocks), entry.subalgebra.basis())
    rad, expected = v.radical, entry.subalgebra.nr
    polys = []
    monkeypatch.setattr(structure, "charpoly", lambda x: polys.append(x) or charpoly(x))
    assert v.nr == expected
    assert len(polys) == rad.dim - expected.dim


def test_nr_brute_force_cross_check():
    rng = random.Random(11)
    n = 3
    a = special_linear(n)
    for _trial in range(6):
        gens = []
        for _ in range(2):
            entries = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    entries[i][j] = rng.randint(-2, 2)
            tr = sum(entries[i][i] for i in range(n))
            entries[n - 1][n - 1] -= tr
            gens.append(ExactMatrix(entries))
        v = make_subalgebra(a, gens, mode="close_up")
        rad = v.radical
        grid_nilpotents = []
        for coeffs in itertools.product([-1, 0, 1], repeat=rad.dim):
            x = ExactMatrix.zeros(n)
            for c, m in zip(coeffs, rad.basis()):
                if c:
                    x = x + m.scale(c)
            if x.is_nilpotent():
                grid_nilpotents.append(x)
        spanned = Subspace.span(grid_nilpotents, n)
        assert spanned == v.nr


# ---------------------------------------------------------------------------
# conjugation, Levi intersection, reductive test
# ---------------------------------------------------------------------------


def test_conj_sigma_stable_fixed():
    a = special_linear(2)
    sl2 = subalgebra_from_space(a, a.space)
    assert sl2.conj is sl2
    assert sl2.levi_part is sl2


def test_conj_nilpotent_line():
    a = special_linear(2)
    v = make_subalgebra(a, [_E(2, 0, 1)])
    assert v.conj.space == Subspace.span([_E(2, 1, 0)], 2)
    assert v.levi_part.dim == 0


def test_levi_is_sigma_stable_and_closed():
    a = block_special_linear([2, 2])
    v = make_subalgebra(a, [_diag(1, -1, 1, -1), _E(4, 0, 1) + _E(4, 2, 3)])
    levi = v.levi_part
    assert levi.conj.space == levi.space
    assert levi.dim == 1
    assert levi.contains(_diag(1, -1, 1, -1))


def test_is_n_reductive_whole_algebra():
    a = special_linear(3)
    k = subalgebra_from_space(a, a.space)
    verdict = k.n_reductive_verdict
    assert verdict.ok
    assert verdict.nilpotent_part.dim == 0
    assert verdict.reductive_part == a.space


def test_is_n_reductive_su22_entry():
    a = block_special_linear([2, 2])
    v = make_subalgebra(a, [_diag(1, -1, 1, -1), _E(4, 0, 1) + _E(4, 2, 3)])
    verdict = v.n_reductive_verdict
    assert verdict.ok
    assert verdict.nilpotent_part.dim == 1
    assert verdict.reductive_part.dim == 1


def test_is_n_reductive_orthogonal_form_fails():
    # v = {X : X^T S + S X = 0} for symmetric S with S * conj(S) not scalar:
    # then conj(v) differs from v and the Levi part is too small.
    a = special_linear(3)
    s_diag = [QI(1), QI(1), QI(0, 2)]
    gens = []
    for i in range(3):
        for j in range(i + 1, 3):
            gens.append(_E(3, i, j) - _E(3, j, i).scale(s_diag[i] / s_diag[j]))
    v = make_subalgebra(a, gens)
    assert v.dim == 3
    assert v.radical.dim == 0
    verdict = v.n_reductive_verdict
    assert not verdict.ok
    assert v.conj.space != v.space


def test_is_n_reductive_nilpotent_line():
    a = special_linear(2)
    v = make_subalgebra(a, [_E(2, 0, 1)])
    verdict = v.n_reductive_verdict
    assert verdict.ok  # v = nr(v) + 0


# ---------------------------------------------------------------------------
# normalizer
# ---------------------------------------------------------------------------


def test_normalizer_of_nilpotent_line_is_borel():
    a = special_linear(2)
    s = Subspace.span([_E(2, 0, 1)], 2)
    n_of = normalizer(a, s)
    assert n_of.dim == 2
    assert n_of.contains(_E(2, 0, 1))
    assert n_of.contains(_diag(1, -1))


def test_normalizer_of_strict_uppers_is_borel():
    a = special_linear(3)
    s = Subspace.span([_E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)], 3)
    n_of = normalizer(a, s)
    assert n_of.dim == 5
    for m in [_E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2), _diag(1, -1, 0), _diag(0, 1, -1)]:
        assert n_of.contains(m)
    assert not n_of.contains(_E(3, 1, 0))


def test_normalizer_of_flag_13_nilradical():
    # the coupled nilpotent pair from the flag-(1,3) stabilizer: its
    # normalizer keeps the coupling constraint on the diagonal and picks up
    # one extra root, landing strictly between the algebra and a Borel
    a = block_special_linear([2, 3])
    s = Subspace.span([_E(5, 0, 1) + _E(5, 2, 4), _E(5, 3, 4)], 5)
    q = normalizer(a, s)
    assert q.dim == 7
    assert q.contains(_E(5, 0, 1))       # z-slot in the first block
    assert q.contains(_E(5, 2, 4))       # z-slot in the second block
    assert q.contains(_E(5, 3, 4))
    assert q.contains(_E(5, 3, 2))       # the extra root direction
    assert not q.contains(_E(5, 2, 3))   # breaks the coupling
    assert not q.contains(_E(5, 1, 0))
    assert not q.contains(_E(5, 4, 2))
    # diagonal part carries one linear constraint tying the two z-slots
    assert q.contains(_diag(1, 0, 2, -4, 1))
    assert q.contains(_diag(0, 0, 1, -2, 1))
    assert not q.contains(_diag(1, -1, 0, 0, 0))


def test_normalizer_contains_normalizing_subalgebras():
    a = special_linear(3)
    s = Subspace.span([_E(3, 0, 2)], 3)
    n_of = normalizer(a, s)
    # candidates that visibly normalize s
    for cand in [_E(3, 0, 1), _diag(1, 0, -1), _E(3, 0, 2)]:
        w = bracket_space(Subspace.span([cand], 3), s)
        assert s.contains_space(w)
        assert n_of.contains(cand)


def test_normalizer_is_memoized_per_ambient(monkeypatch):
    blocks = (2, 1)
    a = block_special_linear(blocks)
    s = Subspace.span([_E(3, 0, 1)], 3)
    first = normalizer(a, s)
    kernels = []
    monkeypatch.setattr(
        structure, "bracket_kernel",
        lambda *args, **kwargs: kernels.append(args) or bracket_kernel(*args, **kwargs),
    )
    assert normalizer(a, s) is first
    assert kernels == []
    # a fresh ambient starts empty, and interns its own subalgebra
    fresh = type(a)(blocks)
    assert fresh._derived == {}
    again = normalizer(fresh, s)
    assert kernels and again is not first and again.space == first.space


def test_normalizer_of_zero_is_everything():
    a = special_linear(2)
    n_of = normalizer(a, a.zero_space())
    assert n_of.space == a.space


# ---------------------------------------------------------------------------
# element classification
# ---------------------------------------------------------------------------


def _jordan_kind(x):
    s = semisimple_part(x)
    if s == x:
        return "semisimple"
    return "nilpotent" if s.is_zero else "mixed"


def test_jordan_flags_oracles():
    assert _jordan_kind(_E(2, 0, 1)) == "nilpotent"
    assert _jordan_kind(_diag(1, -1)) == "semisimple"
    # distinct eigenvalues force semisimplicity even in triangular form
    assert _jordan_kind(_diag(1, -1) + _E(2, 0, 1)) == "semisimple"
    # a repeated eigenvalue with an off-diagonal coupling is genuinely mixed
    assert _jordan_kind(_diag(1, 1, -2) + _E(3, 0, 1)) == "mixed"
    assert _jordan_kind(ExactMatrix.zeros(2)) == "semisimple"
    assert _jordan_kind(_diag(QI(0, 1), QI(0, -1))) == "semisimple"


def test_rational_roots():
    # (t - 1)(t - i)
    p = [QI(1), QI(-1) + QI(0, -1), QI(0, 1)]
    roots = rational_roots(p)
    assert roots == [QI(0, 1), QI(1)] or roots == sorted(
        [QI(1), QI(0, 1)], key=lambda r: (r.re, r.im)
    )
    # t^2 - 2 has no rational roots
    assert rational_roots([QI(1), QI(0), QI(-2)]) == []
    # t^2 + 1 factors over Q(i)
    assert rational_roots([QI(1), QI(0), QI(1)]) == [QI(0, -1), QI(0, 1)]


def test_rational_roots_repeated_scaled_and_irreducible():
    def times(p, q):
        out = [QI(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
        return out

    def power(p, m):
        out = [QI(1)]
        for _ in range(m):
            out = times(out, p)
        return out

    # a fivefold root: only the squarefree part, whose roots are simple,
    # has a root modulo the prime that lifts to it
    root = QI(Fraction(7, 25), Fraction(-1, 5))
    p = power([QI(1), -root], 5)
    assert rational_roots(p) == [root]
    # non-monic, with a leading zero, a double root and an irreducible
    # quadratic factor, whose roots modulo the prime lift to no root in Q(i)
    third = QI(Fraction(1, 3))
    q = times(power([QI(3), QI(-1)], 2), [QI(1), QI(0), QI(-2)])
    assert rational_roots([QI(0)] + q) == [third]
    # distinct Gaussian-rational roots come back sorted by (re, im)
    roots = [QI(7), QI(Fraction(1, 5), Fraction(2, 5)), QI(0, -3)]
    r = [QI(1)]
    for root in roots:
        r = times(r, [QI(1), -root])
    assert rational_roots(r) == sorted(roots, key=lambda x: (x.re, x.im))
    with pytest.raises(ValueError):
        rational_roots([QI(0), QI(0)])


def test_rational_roots_colliding_modulo_small_primes():
    # 0, 3 and 7 form a double root modulo 3 and modulo 7, so the lifting
    # starts from the next prime q = 3 (mod 4), 11
    p = [QI(1), QI(-10), QI(21), QI(0)]
    assert rational_roots(p) == [QI(0), QI(3), QI(7)]
    # the same roots scaled by 1/7 and shifted by i, with a leading coefficient
    roots = [QI(0, 1), QI(Fraction(3, 7), 1), QI(1, 1)]
    q = [QI(5)]
    for root in roots:
        q = [a - root * b for a, b in zip(q + [QI(0)], [QI(0)] + q)]
    assert rational_roots(q) == roots


# ---------------------------------------------------------------------------
# chain invariants
# ---------------------------------------------------------------------------


def test_radn_inside_nr_examples():
    a = block_special_linear([2, 2])
    v = make_subalgebra(a, [_diag(1, -1, 1, -1), _E(4, 0, 1) + _E(4, 2, 3)])
    radn = v.radical.intersect(v.derived)
    assert v.nr.contains_space(radn)

    b = special_linear(3)
    borel = make_subalgebra(
        b, [_diag(1, -1, 0), _diag(0, 1, -1), _E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)]
    )
    radn = borel.radical.intersect(borel.derived)
    assert borel.nr.contains_space(radn)
    assert borel.nr == Subspace.span([_E(3, 0, 1), _E(3, 0, 2), _E(3, 1, 2)], 3)


def test_derived_is_one_bracket_space(monkeypatch):
    # strictly upper triangular sl(4) in a fresh ambient: nothing is cached
    upper = [_E(4, i, j) for i in range(4) for j in range(i + 1, 4)]
    v = make_subalgebra(structure.AmbientAlgebra((4,)), upper)
    calls = []
    real = structure.bracket_space

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(structure, "bracket_space", counting)
    steps = Subspace.span([_E(4, i, j) for i in range(4) for j in range(i + 2, 4)], 4)
    assert v.derived == steps
    assert v.derived == steps
    assert len(calls) == 1


def test_splittability():
    a = special_linear(2)
    borel = make_subalgebra(a, [_diag(1, -1), _E(2, 0, 1)])
    assert borel.is_splittable
    # the span of a single mixed element is a subalgebra but not splittable
    b = special_linear(3)
    v = make_subalgebra(b, [_diag(1, 1, -2) + _E(3, 0, 1)])
    assert not v.is_splittable
    # a triangular element with distinct eigenvalues is semisimple, so its
    # span is splittable after all
    u = make_subalgebra(a, [_diag(1, -1) + _E(2, 0, 1)])
    assert u.is_splittable


# ---------------------------------------------------------------------------
# closures and ideal certificates against their naive forms
# ---------------------------------------------------------------------------


def _naive_closure(space):
    """span <- span + [span, span] to a fixed point."""
    while True:
        nxt = space.sum(bracket_space(space, space))
        if nxt == space:
            return space
        space = nxt


@st.composite
def _traceless_generators(draw):
    """One to three sparse integer matrices in sl(3) or sl(4)."""
    n = draw(st.sampled_from((3, 4)))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        entries = [[draw(st.sampled_from((0, 0, 0, 1, -1, 2))) for _ in range(n)] for _ in range(n)]
        entries[n - 1][n - 1] -= sum(entries[i][i] for i in range(n))
        gens.append(ExactMatrix(entries))
    return n, gens


@settings(max_examples=40, deadline=None)
@given(_traceless_generators(), st.data())
def test_bracket_closure_and_ideal_test_match_their_naive_forms(case, data):
    n, gens = case
    a = special_linear(n)
    space = Subspace.span(gens, n)
    closure = _naive_closure(space)
    assert structure._bracket_closure(space) == closure
    assert structure._bracket_closure(space, ceiling=closure) == closure
    assert structure._bracket_closure(space, ceiling=a.space) == closure
    basis = closure.basis()
    picked = data.draw(st.lists(st.sampled_from(basis), max_size=len(basis))) if basis else []
    for ideal in (Subspace.span(picked, n), bracket_space(closure, closure)):
        expected = ideal.contains_space(bracket_space(closure, ideal))
        assert structure._is_ideal(closure, ideal) == expected


@pytest.mark.parametrize(
    "n, signs, dim",
    [(5, (1,), 10), (4, (1, -1), 15)],
    ids=["positive simple roots of sl(5)", "simple roots of sl(4)"],
)
def test_bracket_closure_of_simple_root_vectors(n, signs, dim):
    # closures that take several rounds, each adding more than one direction
    gens = [_E(n, i, i + 1) if sign > 0 else _E(n, i + 1, i) for sign in signs for i in range(n - 1)]
    space = Subspace.span(gens, n)
    closure = _naive_closure(space)
    assert closure.dim == dim
    assert structure._bracket_closure(space) == closure
    assert structure._bracket_closure(space, ceiling=closure) == closure


def test_ideal_test_needs_both_kinds_of_pairs():
    sl2 = special_linear(2).space
    # [h, e] and [h, f] stay in span{e, f}, but [e, f] = h does not
    assert not structure._is_ideal(sl2, Subspace.span([_E(2, 0, 1), _E(2, 1, 0)], 2))
    # [e, e] = 0, but [f, e] = -h leaves span{e}
    assert not structure._is_ideal(sl2, Subspace.span([_E(2, 0, 1)], 2))
    assert structure._is_ideal(sl2, sl2)
    assert structure._is_ideal(sl2, Subspace.zero(2))
