"""Structure theory of matrix Lie subalgebras of the ambient algebra.

Everything here is exact: radicals come from trace-form orthogonality,
nilpotent radicals from simultaneous triangularization over the Gaussian
rationals (failing loudly when an eigenvalue leaves Q(i)), and reductive
decompositions are verified dimension identities, never numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .ambient import AmbientAlgebra
from .errors import ClosureError, IrrationalWeightsError
from .exact import (
    QI,
    QI_ZERO,
    ExactMatrix,
    Subspace,
    VectorSpan,
    bracket,
    bracket_space,
    charpoly,
    semisimple_part,
    squarefree_part,
    subspace_intersect,
    _columns_to_rows,
    _common_row,
    _int_row,
    _kernel_mats,
    _kernel_num,
    _lincomb,
    _matrix_from_columns,
    _poly_eval_matrix,
    _qi_of,
    _rref_num,
    _to_num,
    _trace_form,
)

__all__ = [
    "Subalgebra",
    "NReductiveVerdict",
    "make_subalgebra",
    "subalgebra_from_space",
    "normalizer",
    "jordan_flags",
    "rational_roots",
]


@dataclass(frozen=True)
class NReductiveVerdict:
    """Outcome of the reductive-complement test, with witnesses."""

    ok: bool
    nilpotent_part: Subspace
    reductive_part: Subspace


class Subalgebra:
    """A bracket-closed complex subspace of the ambient algebra.

    Instances are interned per (ambient, space): construct them through
    :func:`make_subalgebra`, :func:`subalgebra_from_space`, or the ambient
    helpers so caches are shared.
    """

    def __init__(self, ambient: AmbientAlgebra, space: Subspace, _token=None):
        if _token is not _INTERN_TOKEN:
            raise TypeError(
                "use make_subalgebra/subalgebra_from_space to create Subalgebra"
            )
        self.ambient = ambient
        self.space = space
        self._cache: dict[str, object] = {}

    # -- basic queries ---------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.space.dim

    def basis(self) -> list[ExactMatrix]:
        return self.space.basis()

    def contains(self, x: ExactMatrix) -> bool:
        return self.space.contains_mat(x)

    def contains_space(self, s: Subspace) -> bool:
        return self.space.contains_space(s)

    def __repr__(self) -> str:
        return f"Subalgebra(dim={self.dim}, ambient={self.ambient.describe()})"

    # -- cached structure -------------------------------------------------------
    @property
    def derived_series(self) -> tuple[Subspace, ...]:
        """[v, [v,v], [[v,v],[v,v]], ...] down to its fixed point."""
        if "derived_series" not in self._cache:
            chain = [self.space]
            while chain[-1].dim:
                nxt = bracket_space(chain[-1], chain[-1])
                if nxt == chain[-1]:
                    break
                chain.append(nxt)
            self._cache["derived_series"] = tuple(chain)
        return self._cache["derived_series"]  # type: ignore[return-value]

    @property
    def derived(self) -> Subspace:
        series = self.derived_series
        return series[1] if len(series) > 1 else series[0]

    @property
    def radical(self) -> Subspace:
        """The maximal solvable ideal, via trace-form orthogonality.

        rad(v) = {X in v : tr(X Y) = 0 for all Y in [v, v]}, which is the
        radical for matrix Lie algebras in characteristic zero.  The result
        is verified: it is an ideal, it is solvable, and the quotient has
        nondegenerate Killing form.
        """
        if "radical" not in self._cache:
            rad = self._compute_radical()
            self._verify_radical(rad)
            self._cache["radical"] = rad
        return self._cache["radical"]  # type: ignore[return-value]

    @property
    def nr(self) -> Subspace:
        """The nilpotent elements of the radical (an ideal of v)."""
        if "nr" not in self._cache:
            self._cache["nr"] = self._compute_nr()
        return self._cache["nr"]  # type: ignore[return-value]

    @property
    def conj(self) -> "Subalgebra":
        """The σ-image (entrywise −X* on a basis)."""
        if "conj" not in self._cache:
            image = self.ambient.conj_space(self.space)
            self._cache["conj"] = subalgebra_from_space(self.ambient, image)
        return self._cache["conj"]  # type: ignore[return-value]

    @property
    def levi_part(self) -> "Subalgebra":
        """L(v) = v ∩ σ(v): reductive, σ-stable, bracket-closed."""
        if "levi_part" not in self._cache:
            inter = subspace_intersect(self.space, self.conj.space)
            self._cache["levi_part"] = subalgebra_from_space(self.ambient, inter)
        return self._cache["levi_part"]  # type: ignore[return-value]

    @property
    def is_sigma_stable(self) -> bool:
        return self.conj.space == self.space

    @property
    def compact_intersection(self) -> Subspace:
        """v ∩ k0 as a real subspace (coordinates doubled)."""
        if "compact_intersection" not in self._cache:
            self._cache["compact_intersection"] = subspace_intersect(
                self.space.realify(), self.ambient.k0
            )
        return self._cache["compact_intersection"]  # type: ignore[return-value]

    @property
    def n_reductive_verdict(self) -> NReductiveVerdict:
        if "n_reductive_verdict" not in self._cache:
            nil = self.nr
            red = self.levi_part.space
            ok = (
                nil.dim + red.dim == self.dim
                and subspace_intersect(nil, red).dim == 0
                and nil.sum(red) == self.space
            )
            self._cache["n_reductive_verdict"] = NReductiveVerdict(ok, nil, red)
        return self._cache["n_reductive_verdict"]  # type: ignore[return-value]

    @property
    def is_splittable(self) -> bool:
        """True when both Jordan summands of every element stay inside."""
        if "is_splittable" not in self._cache:
            self._cache["is_splittable"] = all(
                self.contains(semisimple_part(x)) for x in self.basis()
            )
        return self._cache["is_splittable"]  # type: ignore[return-value]

    # -- internals ----------------------------------------------------------------
    def _compute_radical(self) -> Subspace:
        mats = self.basis()
        if not mats:
            return self.ambient.zero_space()
        rows = [
            _common_row([_trace_form(x, y) for x in mats])
            for y in self.derived.basis()
        ]
        return Subspace.span(_kernel_mats(mats, rows), self.ambient.n)

    def _verify_radical(self, rad: Subspace) -> None:
        if rad.dim and not rad.contains_space(
            bracket_space(self.space, rad)
        ):
            raise ArithmeticError("radical verification failed: not an ideal")
        # solvability of the candidate
        cur = rad
        for _ in range(rad.dim + 1):
            if cur.dim == 0:
                break
            nxt = bracket_space(cur, cur)
            if nxt == cur:
                raise ArithmeticError("radical verification failed: not solvable")
            cur = nxt
        # semisimplicity of the quotient: Killing form has full rank
        m, ad_tables = _quotient_structure(self.space, rad)
        if m == 0:
            return
        killing_rows = []
        for i in range(m):
            row = []
            for j in range(m):
                sre = sim = 0
                for (a, b), (cr, ci) in ad_tables[i].items():
                    other = ad_tables[j].get((b, a))
                    if other is not None:
                        dr, di = other
                        sre += cr * dr - ci * di
                        sim += cr * di + ci * dr
                row.append((sre, sim))
            killing_rows.append(row)
        if len(_rref_num(killing_rows)[0]) != m:
            raise ArithmeticError(
                "radical verification failed: quotient Killing form degenerate"
            )

    def _compute_nr(self) -> Subspace:
        rad = self.radical
        if rad.dim == 0:
            return self.ambient.zero_space()
        weights = _triangular_weights(rad.basis(), self.ambient.n)
        mats = _kernel_mats(rad.basis(), [_int_row(w) for w in weights])
        out = Subspace.span(mats, self.ambient.n)
        # post-verification: nilpotent basis, ideal, contains rad ∩ derived
        for x in out.basis():
            if not x.is_nilpotent():
                raise ArithmeticError("triangularization produced a non-nilpotent")
        if out.dim and not out.contains_space(bracket_space(self.space, out)):
            raise ArithmeticError("nilpotent radical is not an ideal")
        radn = subspace_intersect(rad, self.derived)
        if not out.contains_space(radn):
            raise ArithmeticError("nilpotent radical misses rad ∩ derived")
        return out


_INTERN_TOKEN = object()


def _quotient_structure(space: Subspace, rad: Subspace):
    """Sparse adjoint tables of the quotient algebra space/rad.

    The quotient basis consists of the canonical rows of ``space`` whose
    pivots are not pivots of ``rad``.  Returns (m, tables) where tables[i]
    maps (k, j) to the coefficient of basis element k in [m_i, m_j] mod rad,
    as Gaussian-integer numerators over one denominator shared by all tables.
    """
    rad_pivots = set(rad.pivots)
    mats = [
        mat for mat, p in zip(space.basis(), space.pivots) if p not in rad_pivots
    ]
    comp_pivots = [p for p in space.pivots if p not in rad_pivots]
    m = len(mats)
    if m == 0:
        return 0, []
    residues = {
        (i, j): rad._residue_mat(bracket(mats[i], mats[j]))
        for i in range(m)
        for j in range(m)
        if i != j
    }
    den = lcm(*(d for d, _ in residues.values()))
    tables = [{} for _ in range(m)]
    for (i, j), (d, num) in residues.items():
        f = den // d
        for k, p in enumerate(comp_pivots):
            a, b = num[p]
            if a or b:
                tables[i][(k, j)] = (a * f, b * f)
    return m, tables


def subalgebra_from_space(
    ambient: AmbientAlgebra, space: Subspace, *, verified: bool = False
) -> Subalgebra:
    """Interned constructor; verifies bracket closure unless ``verified``."""
    cached = ambient._subalgebras.get(space)
    if cached is not None:
        return cached  # type: ignore[return-value]
    if not ambient.contains_space(space):
        raise ValueError("not inside ambient")
    if not verified:
        mats = space.basis()
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                w = bracket(mats[i], mats[j])
                if not space.contains_mat(w):
                    raise ClosureError(
                        "not closed under bracket", left=mats[i], right=mats[j]
                    )
    sub = Subalgebra(ambient, space, _token=_INTERN_TOKEN)
    ambient._subalgebras[space] = sub
    return sub


def make_subalgebra(
    ambient: AmbientAlgebra,
    generators,
    mode: str = "require_closed",
) -> Subalgebra:
    """Build a subalgebra from generating matrices.

    ``require_closed`` raises :class:`ClosureError` when the span is not
    bracket-closed; ``close_up`` iterates span ← span + [span, span] to a
    fixed point first.
    """
    gens = list(generators)
    for g in gens:
        if not ambient.contains(g):
            raise ValueError("not inside ambient")
    space = Subspace.span(gens, ambient.n)
    if mode == "require_closed":
        return subalgebra_from_space(ambient, space)
    if mode == "close_up":
        while True:
            nxt = space.sum(bracket_space(space, space))
            if nxt == space:
                break
            space = nxt
        return subalgebra_from_space(ambient, space, verified=True)
    raise ValueError(f"unknown mode: {mode!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def normalizer(ambient: AmbientAlgebra, s: Subspace) -> Subalgebra:
    """N_k(s) = {Z in k : [Z, s] ⊆ s}; always bracket-closed."""
    if s.real:
        raise ValueError("ambient mismatch")
    if not ambient.contains_space(s):
        raise ValueError("not inside ambient")
    kmats = ambient.space.basis()
    rows = []
    for y in s.basis():
        # the residue modulo s is linear in its argument, so residues of the
        # basis brackets assemble into a linear system for the coefficients
        rows += _columns_to_rows([s._residue_mat(bracket(x, y)) for x in kmats])
    space = Subspace.span(_kernel_mats(kmats, rows), ambient.n)
    return subalgebra_from_space(ambient, space, verified=True)


def jordan_flags(x: ExactMatrix, ambient: AmbientAlgebra | None = None) -> str:
    """Classify an element as semisimple, nilpotent, or mixed (exactly)."""
    if ambient is not None and not ambient.contains(x):
        raise ValueError("not inside ambient")
    if not x.is_square:
        raise ValueError("incompatible shapes")
    if x.is_zero:
        return "semisimple"
    if x.is_nilpotent():
        return "nilpotent"
    fs = squarefree_part(charpoly(x))
    if _poly_eval_matrix(fs, x).is_zero:
        return "semisimple"
    return "mixed"


# ---------------------------------------------------------------------------
# Triangularization machinery (weights of a solvable algebra)
# ---------------------------------------------------------------------------


def _deflate(coeffs, root):
    """Quotient of a Gaussian-integer polynomial by ``t - root``, or None
    when ``root`` is not a root (exact synthetic division)."""
    x, y = root
    out = []
    acc_re = acc_im = 0
    for a, b in coeffs:
        acc_re, acc_im = a + acc_re * x - acc_im * y, b + acc_re * y + acc_im * x
        out.append((acc_re, acc_im))
    if out.pop() != (0, 0):
        return None
    return out


def _float_root_candidates(coeffs) -> list[tuple[int, int]]:
    """Nearest Gaussian integers to the floating-point roots; only candidates."""
    try:
        approx = np.roots([complex(a, b) for a, b in coeffs])
    except OverflowError:
        return []
    return [
        (int(round(z.real)), int(round(z.imag)))
        for z in approx
        if np.isfinite(z.real) and np.isfinite(z.imag)
    ]


def _squarefree_candidates(coeffs) -> list[tuple[int, int]]:
    """Candidates from the squarefree part, whose roots are simple and so
    well conditioned where a repeated root of ``coeffs`` is not."""
    part = squarefree_part([QI(a, b) for a, b in coeffs])
    return _float_root_candidates(_to_num(part)[1])


def _exact_linear_roots(coeffs) -> list[tuple[Fraction, Fraction]]:
    """Roots of the linear factors of a Gaussian-integer polynomial,
    from its exact factorization over Q(i)."""
    import sympy

    t = sympy.Symbol("t")
    deg = len(coeffs) - 1
    expr = sum(
        (sympy.Integer(a) + sympy.I * b) * t ** (deg - idx)
        for idx, (a, b) in enumerate(coeffs)
    )
    roots = []
    for fac, _mult in sympy.Poly(expr, t, domain="QQ_I").factor_list()[1]:
        if fac.degree() == 1:
            c1, c0 = fac.all_coeffs()
            re, im = (-c0 / c1).as_real_imag()
            roots.append((Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))))
    return roots


def rational_roots(poly) -> list[QI]:
    """Gaussian-rational roots of an exact polynomial (leading coeff first).

    Returns the distinct roots in Q(i), sorted by (real, imaginary) part.
    With ``t = s / D`` for the common denominator ``D`` of the monic
    coefficients, the polynomial becomes monic over the Gaussian integers,
    so its roots in Q(i) are Gaussian integers over ``D``.  Floating-point
    roots, of the polynomial and then of its squarefree part, only propose
    candidates: each is confirmed by exact evaluation and divided out.  If
    the confirmed roots do not split the polynomial, the remaining factor is
    factored exactly over Q(i), so no root is missed.
    """
    coeffs = list(poly)
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    if not coeffs:
        raise ValueError("zero polynomial has no finite root list")
    lead = coeffs[0]
    den, num = _to_num([c / lead for c in coeffs[1:]])
    remaining = [(1, 0)]
    power = 1
    for a, b in num:
        remaining.append((a * power, b * power))
        power *= den
    found: set[tuple] = set()
    proposers = [_float_root_candidates, _squarefree_candidates]
    while len(remaining) > 1 and proposers:
        degree = len(remaining)
        for cand in proposers[0](remaining):
            quotient = _deflate(remaining, cand)
            while quotient is not None:
                found.add((Fraction(cand[0], den), Fraction(cand[1], den)))
                remaining = quotient
                quotient = _deflate(remaining, cand)
        if len(remaining) == degree:
            proposers.pop(0)
    if len(remaining) > 1:
        for re, im in _exact_linear_roots(remaining):
            found.add((re / den, im / den))
    return [QI(re, im) for re, im in sorted(found)]


def _structure_table(mats: list[ExactMatrix], space: Subspace):
    """T[a][b] = coordinates of [m_a, m_b] in the canonical basis of space.

    Each entry lists the nonzero coordinates as ``(index, re, im)``
    numerators over one denominator shared by the whole table; the table
    only feeds spans of brackets, which that common scale does not change.
    """
    k = len(mats)
    coords = {}
    for a in range(k):
        for b in range(a + 1, k):
            br = bracket(mats[a], mats[b])
            coords[(a, b)] = space._coordinate_num(
                br._den, space._coords_of(br), "matrix is not a member of the subspace"
            )
    den = lcm(*(d for d, _ in coords.values()))
    table = [[()] * k for _ in range(k)]
    for (a, b), (d, num) in coords.items():
        f = den // d
        terms = [(c, x * f, y * f) for c, (x, y) in enumerate(num) if x or y]
        table[a][b] = tuple(terms)
        table[b][a] = tuple((c, -x, -y) for c, x, y in terms)
    return table


def _abstract_bracket(x, y, table, k) -> list:
    """Numerators of the bracket of two coefficient rows, up to a common scale."""
    re = [0] * k
    im = [0] * k
    for a, (xa, xb) in enumerate(x):
        if not (xa or xb):
            continue
        for b, (ya, yb) in enumerate(y):
            if not (ya or yb):
                continue
            sr, si = xa * ya - xb * yb, xa * yb + xb * ya
            for c, tr, ti in table[a][b]:
                re[c] += sr * tr - si * ti
                im[c] += sr * ti + si * tr
    return list(zip(re, im))


def _restricted_matrix(big: ExactMatrix, basis_span: VectorSpan) -> ExactMatrix:
    """Matrix of a linear map restricted to an invariant VectorSpan."""
    return _matrix_from_columns(
        [
            basis_span._coordinate_num(
                *big._apply(row[p][0], row), "vector is not a member of the span"
            )
            for row, p in zip(basis_span._irows, basis_span.pivots)
        ]
    )


def _span_rows(span: VectorSpan) -> list[tuple[int, tuple]]:
    """The canonical basis rows of a span as exact ``(den, numerators)``."""
    return [(row[p][0], row) for row, p in zip(span._irows, span.pivots)]


def _joint_weight_space(alg_rows, act, w_span, table, k):
    """Full joint eigenspace of a solvable algebra inside an invariant span.

    ``alg_rows``: exact ``(den, numerators)`` coefficient vectors (over the
    ambient solvable algebra's basis) spanning the current subalgebra;
    ``act``: coefficient vector → action matrix on the current quotient
    coordinates; ``w_span``: a span invariant under the whole algebra.
    Returns (subspan, pairs) where pairs lists (coefficient vector,
    eigenvalue) for a basis of the subalgebra.
    """
    if not alg_rows:
        return w_span, []
    dim_a = len(alg_rows)
    der_rows = []
    for i in range(dim_a):
        for j in range(i + 1, dim_a):
            der_rows.append(
                _abstract_bracket(alg_rows[i][1], alg_rows[j][1], table, k)
            )
    h_span = VectorSpan._of(k, *_rref_num(der_rows))
    if h_span.dim >= dim_a:
        raise ArithmeticError("weight search requires a solvable algebra")
    target = dim_a - 1
    for _, r in alg_rows:
        if h_span.dim == target:
            break
        if not h_span._has(r):
            h_span = VectorSpan._of(k, *_rref_num(list(h_span._irows) + [list(r)]))
    z_row = next(r for r in alg_rows if not h_span._has(r[1]))
    w_h, pairs = _joint_weight_space(_span_rows(h_span), act, w_span, table, k)
    z_big = act(z_row)
    z_small = _restricted_matrix(z_big, w_h)
    roots = rational_roots(charpoly(z_small))
    if not roots:
        raise IrrationalWeightsError("irrational weights")
    mu = roots[0]
    d = z_small.rows
    shifted = z_small - ExactMatrix.identity(d).scale(mu)
    _, kernel = _kernel_num(shifted._row_nums(), d)
    basis = _span_rows(w_h)
    lift_den = lcm(*(bd for bd, _ in basis))
    width = w_h.width
    lifted = []
    for kv in kernel:
        re = [0] * width
        im = [0] * width
        for (ka, kb), (bd, brow) in zip(kv, basis):
            if ka or kb:
                f = lift_den // bd
                fa, fb = ka * f, kb * f
                for c, (ba, bb) in enumerate(brow):
                    if ba or bb:
                        re[c] += fa * ba - fb * bb
                        im[c] += fa * bb + fb * ba
        lifted.append(list(zip(re, im)))
    w_star = VectorSpan._of(width, *_rref_num(lifted))
    return w_star, pairs + [(z_row, mu)]


def _weight_functional(pairs, k: int) -> tuple[QI, ...]:
    """The functional on the canonical basis taking each eigenvalue ``mu``
    on its coefficient vector ``z``, for the pairs ``((den, z), mu)``.

    The vectors form a basis, so this is the unique solution of the linear
    system ``z . lambda = mu``; it is read off the one-dimensional kernel of
    the augmented integer system ``[den_mu * z | -den * mu_num]``.
    """
    system = []
    for (den, row), mu in pairs:
        mden, ((ma, mb),) = _to_num([mu])
        system.append([(a * mden, b * mden) for a, b in row] + [(-ma * den, -mb * den)])
    _, kernel = _kernel_num(system, k + 1)
    if len(kernel) != 1 or kernel[0][k] == (0, 0):
        raise ValueError("matrix is singular")
    vec = kernel[0]
    ta, tb = vec[k]
    norm = ta * ta + tb * tb
    return tuple(_qi_of(a * ta + b * tb, b * ta - a * tb, norm) for a, b in vec[:k])


def _triangular_weights(rad_mats: list[ExactMatrix], n: int):
    """Weights of a simultaneous triangularization of a solvable algebra.

    Returns one functional per flag chunk, as a coefficient row over the
    given basis; an element is nilpotent iff every functional vanishes on it.
    """
    k = len(rad_mats)
    rad_space = Subspace.span(rad_mats, n)
    mats = rad_space.basis()
    table = _structure_table(mats, rad_space)
    identity_rows = [
        (1, tuple((1, 0) if a == b else (0, 0) for b in range(k))) for a in range(k)
    ]
    accumulated = VectorSpan._of(n, (), ())
    weights = []
    while accumulated.dim < n:
        pivot_set = set(accumulated.pivots)
        comp = [c for c in range(n) if c not in pivot_set]
        m = len(comp)

        # the action of each basis element on C^n / accumulated, in the
        # coordinates ``comp``
        action_mats = []
        for r in mats:
            cols = []
            for c in comp:
                den, res = accumulated._residue(
                    r._den, [r._num[i * n + c] for i in range(n)]
                )
                cols.append((den, [res[p] for p in comp]))
            action_mats.append(_matrix_from_columns(cols))

        def act(coeff_row):
            if not action_mats:
                return ExactMatrix.zeros(m)
            return _lincomb(action_mats, *coeff_row)

        full_span = VectorSpan._of(
            m,
            range(m),
            [tuple((1, 0) if i == j else (0, 0) for j in range(m)) for i in range(m)],
        )
        w_star, pairs = _joint_weight_space(
            identity_rows, act, full_span, table, k
        )
        if w_star.dim == 0:
            raise ArithmeticError("weight search lost the eigenspace")
        weights.append(_weight_functional(pairs, k))
        lifted = []
        for row in w_star._irows:
            full = [(0, 0)] * n
            for pos, val in zip(comp, row):
                full[pos] = val
            lifted.append(full)
        before = accumulated.dim
        accumulated = VectorSpan._of(
            n, *_rref_num([list(r) for r in accumulated._irows] + lifted)
        )
        if accumulated.dim != before + w_star.dim:
            raise ArithmeticError("flag chunks failed to stay independent")
    # express functionals over the ORIGINAL basis order if it differs
    if mats != rad_mats:
        converted = []
        for lam in weights:
            vals = []
            for orig in rad_mats:
                coords = rad_space.coordinates_of(orig)
                acc = QI_ZERO
                for c, l in zip(coords, lam):
                    if c and l:
                        acc = acc + c * l
                vals.append(acc)
            converted.append(tuple(vals))
        weights = converted
    return weights
