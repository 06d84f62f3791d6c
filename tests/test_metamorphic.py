"""Metamorphic tests: conjugation by an exact unitary of the ambient algebra
moves every basis the pipeline sees, but none of the invariants it reports.

The unitaries are block-diagonal, so they preserve the ambient algebra, its
compact real form and the conjugation σ.  Signed (and phased) permutations
within the blocks keep the elimination rows sparse; Cayley transforms
(I - S)(I + S)^-1 of rational skew-Hermitian block-diagonal S fill them in.
"""

import itertools
import sys
from fractions import Fraction
from functools import cache

from hypothesis import given, settings, strategies as st

from crmostow import catalog, cli
from crmostow.exact import QI, ExactMatrix, Subspace
from crmostow.structure import make_subalgebra

SPECS = tuple(
    (name, catalog.REFERENCE_PARAMS.get(name)) for name in catalog.entry_names()
) + tuple(
    ("grassmann_pair", params)
    for params in catalog.grassmann_parameter_grid(5)
    if params != catalog.REFERENCE_PARAMS["grassmann_pair"]
)
PHASES = (QI(1), QI(-1), QI(0, 1), QI(0, -1))


def _invariants(v, witt: bool) -> dict:
    """The basis-free part of an analysis report.

    The sampled Witt bound is a minimum over integer points in the
    coordinates of the canonical basis of the characteristic directions; a
    monomial unitary only permutes and rephases those coordinates, while a
    Cayley transform mixes them and may move the sampled minimum
    (``witt=False``).
    """
    report = cli.build_analysis_report(v, {}, seed=0)
    keys = [
        "n_reductive", "dims", "regularization", "envelopes", "hnr",
        "strict_hnr", "cr_type", "f0_dim", "l_dim",
    ]
    out = {key: report[key] for key in keys}
    out["intermediate_dim"] = report["intermediate"] and report["intermediate"]["dim"]
    if witt:
        out["witt"] = report["witt_lower_bound"] and report["witt_lower_bound"]["value"]
    return out


@cache
def _reference(index: int, witt: bool) -> dict:
    name, params = SPECS[index]
    return _invariants(catalog.build(name, params).subalgebra, witt)


def _conjugated(index: int, g: ExactMatrix):
    name, params = SPECS[index]
    entry = catalog.build(name, params)
    g_inv = g.star()
    assert g @ g_inv == ExactMatrix.identity(g.rows)
    return make_subalgebra(entry.ambient, [g @ b @ g_inv for b in entry.subalgebra.basis()])


def _moved_nr(index: int, g: ExactMatrix) -> Subspace:
    """g nr(v) g* for the unconjugated spec ``index``, as an exact subspace."""
    name, params = SPECS[index]
    nr = catalog.build(name, params).subalgebra.nr
    return Subspace.span([g @ b @ g.star() for b in nr.basis()], g.rows)


def _blocks(index: int) -> tuple[int, ...]:
    name, params = SPECS[index]
    return catalog.build(name, params).ambient.blocks


@st.composite
def _monomial(draw):
    """A spec index and a block-diagonal permutation matrix with phases ±1, ±i."""
    index = draw(st.integers(0, len(SPECS) - 1))
    blocks = _blocks(index)
    n = sum(blocks)
    grid = [[QI(0)] * n for _ in range(n)]
    start = 0
    for b in blocks:
        perm = draw(st.permutations(range(b)))
        for i, j in enumerate(perm):
            grid[start + i][start + j] = draw(st.sampled_from(PHASES))
        start += b
    return index, ExactMatrix(grid)


def _cayley_transform(blocks, draw_value) -> ExactMatrix:
    """(I - S)(I + S)^-1 for the block-diagonal skew-Hermitian S whose
    diagonal imaginary parts and upper-triangle real and imaginary parts
    are ``draw_value()``, row by row."""
    n = sum(blocks)
    grid = [[QI(0)] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i in range(start, start + b):
            grid[i][i] = QI(0, draw_value())
            for j in range(i + 1, start + b):
                z = QI(draw_value(), draw_value())
                grid[i][j], grid[j][i] = z, -z.conj()
        start += b
    s = ExactMatrix(grid)
    one = ExactMatrix.identity(n)
    return (one - s) @ (one + s).inverse()


@st.composite
def _cayley(draw):
    """A spec index and the Cayley transform of a block-diagonal
    skew-Hermitian S with entries in (Z + iZ) / 2."""
    index = draw(st.integers(0, len(SPECS) - 1))
    half = st.integers(-1, 1).map(lambda k: Fraction(k, 2))
    return index, _cayley_transform(_blocks(index), lambda: draw(half))


@settings(max_examples=25, deadline=None)
@given(_monomial())
def test_monomial_conjugation_keeps_invariants(case):
    index, g = case
    v = _conjugated(index, g)
    assert _invariants(v, witt=True) == _reference(index, True)
    assert v.nr == _moved_nr(index, g)


@settings(max_examples=6, deadline=None)
@given(_cayley())
def test_cayley_conjugation_keeps_invariants(case):
    index, g = case
    v = _conjugated(index, g)
    assert _invariants(v, witt=False) == _reference(index, False)
    assert v.nr == _moved_nr(index, g)


def test_cayley_conjugation_needs_no_factorization(monkeypatch):
    # The monic rescaling of these characteristic polynomials has a common
    # denominator large enough that floating-point roots could not round to
    # their Gaussian-integer roots; every weight still comes from the exact
    # root finder, with sympy blocked.
    monkeypatch.setitem(sys.modules, "sympy", None)
    index = SPECS.index(("grassmann_pair", {"p": 1, "q": 3, "n": 3, "k": 0}))
    values = itertools.cycle(
        [Fraction(k, d) for k, d in ((1, 2), (-1, 3), (2, 3), (1, 1), (-2, 3), (1, 3))]
    )
    g = _cayley_transform(_blocks(index), lambda: next(values))
    assert _invariants(_conjugated(index, g), witt=False) == _reference(index, False)
