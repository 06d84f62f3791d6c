"""Structure theory of matrix Lie subalgebras of the ambient algebra.

Everything here is exact: radicals come from trace-form orthogonality,
nilpotent radicals from the trace form of the associative algebra the
radical generates (failing loudly when an eigenvalue of the radical leaves
Q(i)), and reductive decompositions are verified dimension identities,
never numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .ambient import AmbientAlgebra
from .errors import ClosureError, IrrationalWeightsError
from .exact import (
    QI,
    ExactMatrix,
    Subspace,
    bracket,
    bracket_space,
    charpoly,
    kernel_space,
    semisimple_part,
    squarefree_part,
    trace_annihilator,
    _poly_derivative,
    _rref_num,
    _squarefree_num,
    _to_num,
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
            rad = trace_annihilator(self.basis(), self.derived.basis(), self.ambient.n)
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
            inter = self.space.intersect(self.conj.space)
            self._cache["levi_part"] = subalgebra_from_space(self.ambient, inter)
        return self._cache["levi_part"]  # type: ignore[return-value]

    @property
    def compact_intersection(self) -> Subspace:
        """v ∩ k0 as a real subspace (coordinates doubled)."""
        if "compact_intersection" not in self._cache:
            self._cache["compact_intersection"] = self.space.realify().intersect(
                self.ambient.k0
            )
        return self._cache["compact_intersection"]  # type: ignore[return-value]

    @property
    def n_reductive_verdict(self) -> NReductiveVerdict:
        if "n_reductive_verdict" not in self._cache:
            nil = self.nr
            red = self.levi_part.space
            ok = (
                nil.dim + red.dim == self.dim
                and nil.intersect(red).dim == 0
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
            row = {}
            for j in range(m):
                sre = sim = 0
                for (a, b), (cr, ci) in ad_tables[i].items():
                    other = ad_tables[j].get((b, a))
                    if other is not None:
                        dr, di = other
                        sre += cr * dr - ci * di
                        sim += cr * di + ci * dr
                if sre or sim:
                    row[j] = (sre, sim)
            killing_rows.append(row)
        if len(_rref_num(killing_rows)[0]) != m:
            raise ArithmeticError(
                "radical verification failed: quotient Killing form degenerate"
            )

    def _compute_nr(self) -> Subspace:
        """nr = rad ∩ J(A), for A the unital associative algebra that rad
        generates and J(A) = {a in A : tr(a b) = 0 for all b in A} its
        radical (de Graaf, *Lie Algebras: Theory and Algorithms*, 2000).

        rad is solvable, so A is triangular in some flag over C, and an
        element of rad is nilpotent exactly when it lies in J(A), whatever
        the weights; irrational weights are an error all the same.
        """
        rad = self.radical
        if rad.dim == 0:
            return self.ambient.zero_space()
        mats = rad.basis()
        for x in mats:
            roots, poly = _eigenvalues(self.ambient, x)
            if len(roots) < len(squarefree_part(poly)) - 1:
                raise IrrationalWeightsError("irrational weights")
        out = trace_annihilator(mats, _unital_closure(rad).basis(), self.ambient.n)
        # post-verification: nilpotent basis, ideal, contains rad ∩ derived
        for x in out.basis():
            if not x.is_nilpotent():
                raise ArithmeticError("trace criterion produced a non-nilpotent")
        if out.dim and not out.contains_space(bracket_space(self.space, out)):
            raise ArithmeticError("nilpotent radical is not an ideal")
        radn = rad.intersect(self.derived)
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
    comp_index = {p: k for k, p in enumerate(comp_pivots)}
    tables = [{} for _ in range(m)]
    for (i, j), (d, num) in residues.items():
        f = den // d
        for p, (a, b) in num.items():
            k = comp_index.get(p)
            if k is not None:
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
        return subalgebra_from_space(ambient, _bracket_closure(space), verified=True)
    raise ValueError(f"unknown mode: {mode!r}")


def _bracket_closure(space: Subspace) -> Subspace:
    """The smallest bracket-closed subspace containing ``space``: iterate
    span <- span + [span, span] to a fixed point."""
    while True:
        nxt = space.sum(bracket_space(space, space))
        if nxt == space:
            return space
        space = nxt


def _unital_closure(rad: Subspace) -> Subspace:
    """The unital associative algebra generated by ``rad``: span{I} + rad
    closed under left multiplication by rad.  Each round multiplies only the
    canonical rows new to the span, those at pivots it did not have."""
    n = rad.side
    mats = rad.basis()
    alg = Subspace.span([ExactMatrix.identity(n)], n).sum(rad)
    frontier = mats
    while frontier:
        grown = alg.sum(Subspace.span([x @ y for x in mats for y in frontier], n))
        old = set(alg.pivots)
        frontier = [m for m, p in zip(grown.basis(), grown.pivots) if p not in old]
        alg = grown
    return alg


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
    images = ([bracket(x, y) for x in kmats] for y in s.basis())
    space = kernel_space(kmats, images, ambient.n, modulo=s)
    return subalgebra_from_space(ambient, space, verified=True)


def jordan_flags(x: ExactMatrix, ambient: AmbientAlgebra | None = None) -> str:
    """Classify an element as semisimple, nilpotent, or mixed (exactly)."""
    if ambient is not None and not ambient.contains(x):
        raise ValueError("not inside ambient")
    s = semisimple_part(x)
    if s == x:
        return "semisimple"
    return "nilpotent" if s.is_zero else "mixed"


# ---------------------------------------------------------------------------
# Eigenvalues in Q(i)
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


def _inert_primes():
    """The primes q = 3 (mod 4) in increasing order.  Each stays prime in
    Z[i], so Z[i] / (q) is the field with q^2 elements."""
    q = 3
    while True:
        if all(q % p for p in range(3, isqrt(q) + 1, 2)):
            yield q
        q += 4


def _poly_at(coeffs, x: int, y: int, mod: int) -> tuple[int, int]:
    """A Gaussian-integer polynomial at ``x + y i``, modulo ``mod`` (Horner)."""
    re = im = 0
    for a, b in coeffs:
        re, im = (re * x - im * y + a) % mod, (re * y + im * x + b) % mod
    return re, im


def _gaussian_integer_roots(f) -> list[tuple[int, int]]:
    """The roots in Z[i] of a squarefree Gaussian-integer polynomial.

    Hensel lifting modulo an inert prime q: every root in Z[i] reduces to a
    root of ``f`` in Z[i] / (q), and from a simple root there Newton's
    iteration lifts it to the unique root modulo q^(2^j).  A q for which
    every root modulo q is simple exists, because ``f`` has a nonzero
    discriminant.  Once q^(2^j) exceeds twice a bound on the roots, the
    symmetric residues of a lift are its real and imaginary parts; a lift
    that does not come from a root in Z[i] fails the exact deflation.
    """
    df = _poly_derivative(f)
    for q in _inert_primes():
        fq = [(a % q, b % q) for a, b in f]
        roots = [
            (x, y)
            for x in range(q)
            for y in range(q)
            if _poly_at(fq, x, y, q) == (0, 0)
        ]
        if all(_poly_at(df, x, y, q) != (0, 0) for x, y in roots):
            break
    # Fujiwara's bound |root| <= 2 max_k |f_k / f_0|^(1/k) is below 2^(e+1),
    # from |f_0| >= 2^lead and |f_k| <= |re f_k| + |im f_k|
    lead = max(map(abs, f[0])).bit_length() - 1
    e = max(
        -((lead - (abs(a) + abs(b)).bit_length()) // k)
        for k, (a, b) in enumerate(f[1:], 1)
    )
    limit = 4 << max(e, 0)
    found = []
    for x, y in roots:
        mod = q
        while mod <= limit:
            mod *= mod
            fr, fi = _poly_at(f, x, y, mod)
            dr, di = _poly_at(df, x, y, mod)
            # f / f' = f * conj(f') / (dr^2 + di^2), a unit modulo q
            inv = pow(dr * dr + di * di, -1, mod)
            x = (x - (fr * dr + fi * di) * inv) % mod
            y = (y - (fi * dr - fr * di) * inv) % mod
        half = mod // 2
        root = (x - mod if x > half else x, y - mod if y > half else y)
        if _deflate(f, root) is not None:
            found.append(root)
    return found


def rational_roots(poly) -> list[QI]:
    """Gaussian-rational roots of an exact polynomial (leading coeff first).

    Returns the distinct roots in Q(i), sorted by (real, imaginary) part.
    With ``t = s / D`` for the common denominator ``D`` of the monic
    coefficients, the polynomial becomes monic over the Gaussian integers,
    so its roots in Q(i) are Gaussian integers over ``D``: those of its
    squarefree part, found exactly by :func:`_gaussian_integer_roots`.
    """
    coeffs = list(poly)
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    if not coeffs:
        raise ValueError("zero polynomial has no finite root list")
    lead = coeffs[0]
    den, num = _to_num([c / lead for c in coeffs[1:]])
    monic = [(1, 0)]
    power = 1
    for a, b in num:
        monic.append((a * power, b * power))
        power *= den
    if len(monic) == 1:
        return []
    roots = sorted(_gaussian_integer_roots(_squarefree_num(monic)))
    return [QI(Fraction(a, den), Fraction(b, den)) for a, b in roots]


def _eigenvalues(ambient: AmbientAlgebra, z: ExactMatrix) -> tuple[list[QI], list[QI]]:
    """``(rational_roots(charpoly(z)), charpoly(z))``, memoized on the
    ambient: nr's rationality check and the regularization meet the same
    matrices again and again within one analysis."""
    entry = ambient._eigenvalues.get(z)
    if entry is None:
        poly = charpoly(z)
        entry = ambient._eigenvalues[z] = (rational_roots(poly), poly)
    return entry
