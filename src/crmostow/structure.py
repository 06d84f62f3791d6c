"""Structure theory of matrix Lie subalgebras of the ambient algebra.

Everything here is exact: radicals come from trace-form orthogonality,
nilpotent radicals from the trace form of the associative algebra the
radical generates (failing loudly when an eigenvalue of the radical leaves
Q(i)), and reductive decompositions are verified dimension identities,
never numerics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ambient import AmbientAlgebra
from .errors import ClosureError, IrrationalWeightsError
from .exact import (
    QI,
    ExactMatrix,
    Subspace,
    bracket_kernel,
    bracket_space,
    charpoly,
    kernel_projector,
    killing_form,
    products,
    rational_roots,
    semisimple_part,
    squarefree_part,
    trace_annihilator,
)
# No function here takes a commutator matrix any more; ``structure.bracket``
# stays importable because perfbench's tests check through it that a traced
# run restores every rebound name.
from .exact import bracket  # noqa: F401

__all__ = [
    "Subalgebra",
    "NReductiveVerdict",
    "make_subalgebra",
    "subalgebra_from_space",
    "normalizer",
    "sigma_image",
    "rational_roots",
]


@dataclass(frozen=True)
class NReductiveVerdict:
    """Outcome of the reductive-complement test, with witnesses."""

    ok: bool
    nilpotent_part: Subspace
    reductive_part: Subspace


class Subalgebra:
    """A view of a bracket-closed complex subspace of the ambient algebra.

    A view holds its ambient (strongly), its ``space`` and ``_cache``, the
    ambient's cache dict for that space.  The ambient owns the dict, so every
    result survives the view: a view rebuilt from the same space in the same
    ambient finds them again.  Views are interned weakly per (ambient,
    space): construct them through :func:`make_subalgebra`,
    :func:`subalgebra_from_space`, or the ambient helpers.
    """

    def __init__(self, ambient: AmbientAlgebra, space: Subspace, _token=None):
        if _token is not _INTERN_TOKEN:
            raise TypeError(
                "use make_subalgebra/subalgebra_from_space to create Subalgebra"
            )
        self.ambient = ambient
        self.space = space
        self._cache: dict[object, object] = ambient._caches[space]

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
    def derived(self) -> Subspace:
        """The derived algebra [v, v]."""
        return _memo(self, "derived", lambda: bracket_space(self.space, self.space))

    @property
    def radical(self) -> Subspace:
        """The maximal solvable ideal, via trace-form orthogonality.

        rad(v) = {X in v : tr(X Y) = 0 for all Y in [v, v]}, which is the
        radical for matrix Lie algebras in characteristic zero.  The result
        is verified: it is an ideal, it is solvable, and the quotient has
        nondegenerate Killing form.
        """
        return _memo(self, "radical", self._compute_radical)

    @property
    def nr(self) -> Subspace:
        """The nilpotent elements of the radical (an ideal of v)."""
        return _memo(self, "nr", self._compute_nr)

    @property
    def conj(self) -> "Subalgebra":
        """The σ-image (entrywise −X* on a basis)."""
        # σ is an automorphism: σ[x, y] = [σx, σy], so the image of a
        # subalgebra is closed
        image = sigma_image(self.ambient, self.space)
        return subalgebra_from_space(self.ambient, image, verified=True)

    @property
    def levi_part(self) -> "Subalgebra":
        """L(v) = v ∩ σ(v): reductive, σ-stable, bracket-closed."""
        # an intersection of subalgebras is closed
        inter = _memo(
            self, "levi_part",
            lambda: self.space.intersect(sigma_image(self.ambient, self.space)),
        )
        return subalgebra_from_space(self.ambient, inter, verified=True)

    @property
    def rad_derived(self) -> Subspace:
        """rad(v) ∩ [v, v]: nilpotent, so inside nr; a parabolic's nilradical."""
        return _memo(self, "rad_derived", lambda: self.radical.intersect(self.derived))

    @property
    def compact_intersection(self) -> Subspace:
        """v ∩ k0 as a real subspace (coordinates doubled)."""
        return _memo(
            self, "compact_intersection",
            lambda: self.space.realify().intersect(self.ambient.k0),
        )

    @property
    def n_reductive_verdict(self) -> NReductiveVerdict:
        return _memo(self, "n_reductive_verdict", self._compute_n_reductive_verdict)

    @property
    def is_splittable(self) -> bool:
        """True when both Jordan summands of every element stay inside."""
        return _memo(
            self, "is_splittable",
            lambda: all(self.contains(semisimple_part(x)) for x in self.basis()),
        )

    # -- internals ----------------------------------------------------------------
    def _compute_radical(self) -> Subspace:
        rad = trace_annihilator(self.basis(), self.derived.basis(), self.ambient.n)
        self._verify_radical(rad)
        return rad

    def _compute_n_reductive_verdict(self) -> NReductiveVerdict:
        nil = self.nr
        red = self.levi_part.space
        # dim(A + B) = dim A + dim B − dim(A ∩ B): beside the sum, the count decides A ∩ B = 0
        ok = nil.dim + red.dim == self.dim and nil.sum(red) == self.space
        return NReductiveVerdict(ok, nil, red)

    def _verify_radical(self, rad: Subspace) -> None:
        if not _is_ideal(self.space, rad):
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
        # semisimplicity of the quotient: its Killing form is nondegenerate
        killing = killing_form(self.space, rad)
        if not kernel_projector([killing], killing.rows).is_zero:
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

        Every weight of rad on Cⁿ is linear and vanishes on the nilpotent
        elements, so the weights take values in Q(i) on all of rad once they
        do on a complement of nr: the canonical basis vectors of rad at the
        pivots that nr lacks.  Only those have their eigenvalues checked,
        before the post-verification, so that an irrational input raises
        :class:`IrrationalWeightsError` first.
        """
        rad = self.radical
        if rad.dim == 0:
            return self.ambient.zero_space()
        mats = rad.basis()
        out = trace_annihilator(mats, _unital_closure(rad).basis(), self.ambient.n)
        nil_pivots = set(out.pivots)
        for x, p in zip(mats, rad.pivots):
            if p in nil_pivots:
                continue
            roots, distinct = _eigenvalues(self.ambient, x)
            if len(roots) < distinct:
                raise IrrationalWeightsError("irrational weights")
        # post-verification: nilpotent basis, ideal, contains rad ∩ derived
        for x in out.basis():
            if not x.is_nilpotent():
                raise ArithmeticError("trace criterion produced a non-nilpotent")
        if not _is_ideal(self.space, out):
            raise ArithmeticError("nilpotent radical is not an ideal")
        if not out.contains_space(self.rad_derived):
            raise ArithmeticError("nilpotent radical misses rad ∩ derived")
        return out


_INTERN_TOKEN = object()


def _memo(v: Subalgebra, key, compute):
    """``compute()``, memoized under ``key`` in the cache of ``v``'s space.

    The ambient owns that cache, so the value must hold no
    :class:`Subalgebra`, parabolic, regularization trace or ambient: only
    subspaces, flags and plain data.  Callers rebuild their public objects
    from it on every read, through :func:`subalgebra_from_space`.
    """
    return _lookup(v._cache, key, compute)


def _derived(ambient: AmbientAlgebra, kind: str, operand, compute):
    """``compute()``, memoized on the ambient under ``(kind, operand)``: a
    result derived from an operand (a subspace, a matrix or a tuple of them)
    rather than from a subalgebra.  The value rule of :func:`_memo` holds
    here too."""
    return _lookup(ambient._derived, (kind, operand), compute)


def _lookup(table: dict, key, compute):
    """``table[key]``, filled by ``compute()`` on a miss."""
    if key in table:
        return table[key]
    value = table[key] = compute()
    return value


def _is_ideal(space: Subspace, ideal: Subspace) -> bool:
    """Whether ``[space, ideal] ⊆ ideal`` for a subspace ``ideal`` of
    ``space``, one commutator at a time, stopping at the first outside.

    ``space`` is ``ideal`` plus the canonical rows of ``space`` at the
    pivots ``ideal`` lacks, so only those rows and ``ideal``'s basis are
    bracketed with ``ideal``'s basis.
    """
    return ideal.contains_brackets(_new_rows(space, ideal), ideal.basis())


def subalgebra_from_space(
    ambient: AmbientAlgebra, space: Subspace, *, verified: bool = False
) -> Subalgebra:
    """Interned constructor.

    A space new to the ambient's table must lie in the ambient and, unless
    ``verified``, be bracket-closed; a space already in the table passed
    that check when it entered, so a rebuilt view is not checked again.
    """
    view = ambient._subalgebras.get(space)
    if view is not None:
        return view
    if space not in ambient._caches:
        if not ambient.contains_space(space):
            raise ValueError("not inside ambient")
        if not verified:
            pair = space.bracket_outside(space.basis())
            if pair is not None:
                raise ClosureError("not closed under bracket", left=pair[0], right=pair[1])
        ambient._caches[space] = {}
    view = ambient._subalgebras[space] = Subalgebra(ambient, space, _token=_INTERN_TOKEN)
    return view


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


def _bracket_closure(space: Subspace, ceiling: Subspace | None = None) -> Subspace:
    """The smallest bracket-closed subspace containing ``space``.

    Each round brackets the span only with the span of its canonical rows
    new to it, those at pivots it did not have: the span is the old span
    plus these, and the old span's own brackets were taken before.  A
    ``ceiling`` is a bracket-closed subspace known to contain ``space``, so
    the closure lies inside it; no round starts once the span equals it.
    """
    acc = frontier = space
    while frontier.dim and acc != ceiling:
        grown = acc.sum(bracket_space(acc, frontier))
        frontier = Subspace.span(_new_rows(grown, acc), space.side)
        acc = grown
    return acc


def _new_rows(grown: Subspace, old: Subspace) -> list[ExactMatrix]:
    """The canonical rows of ``grown`` at the pivots that the subspace
    ``old`` inside it lacks; with ``old`` they span ``grown``."""
    pivots = set(old.pivots)
    return [m for m, p in zip(grown.basis(), grown.pivots) if p not in pivots]


def _unital_closure(rad: Subspace) -> Subspace:
    """The unital associative algebra generated by ``rad``: span{I} + rad
    closed under left multiplication by rad.  Each round multiplies only the
    canonical rows new to the span, those at pivots it did not have, and
    ``products`` forms only the products x·y where a column of x is a row
    of y."""
    n = rad.side
    mats = rad.basis()
    alg = Subspace.span([ExactMatrix.identity(n)], n).sum(rad)
    frontier = mats
    while frontier:
        grown = alg.sum(Subspace.span([m for *_, m in products(mats, frontier)], n))
        frontier = _new_rows(grown, alg)
        alg = grown
    return alg


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def normalizer(ambient: AmbientAlgebra, s: Subspace) -> Subalgebra:
    """N_k(s) = {Z in k : [Z, s] ⊆ s}; always bracket-closed.  Its space is
    memoized on the ambient: the regularization, its fixed-point test and the
    horocyclicity verdict normalize the same nilradical."""
    if s.real:
        raise ValueError("ambient mismatch")

    def compute():
        if not ambient.contains_space(s):
            raise ValueError("not inside ambient")
        return bracket_kernel(ambient.space.basis(), s.basis(), ambient.n, modulo=s)

    space = _derived(ambient, "normalizer", s, compute)
    return subalgebra_from_space(ambient, space, verified=True)


def sigma_image(ambient: AmbientAlgebra, s: Subspace) -> Subspace:
    """σ(s) for a complex subspace ``s`` of the ambient, memoized on the
    ambient."""
    return _derived(ambient, "conj", s, lambda: ambient.conj_space(s))


# ---------------------------------------------------------------------------
# Eigenvalues in Q(i)
# ---------------------------------------------------------------------------


def _eigenvalues(ambient: AmbientAlgebra, z: ExactMatrix) -> tuple[list[QI], int]:
    """The distinct eigenvalues of ``z`` in Q(i), sorted, and the number of
    its distinct eigenvalues over C, memoized on the ambient: nr's
    rationality check and the regularization meet the same matrices again
    and again within one analysis.

    Both come from the one squarefree part ``f`` of the characteristic
    polynomial: its degree counts the distinct eigenvalues, and its roots
    are theirs.  ``f`` is monic, so :func:`rational_roots` reads it as it
    stands.
    """

    def compute():
        part = squarefree_part(charpoly(z))
        return rational_roots(part), len(part) - 1

    return _derived(ambient, "eigenvalues", z, compute)
