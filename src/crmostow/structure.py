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
    def derived(self) -> Subspace:
        """The derived algebra [v, v]."""
        if "derived" not in self._cache:
            self._cache["derived"] = bracket_space(self.space, self.space)
        return self._cache["derived"]  # type: ignore[return-value]

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
                if not space.contains_bracket(mats[i], mats[j]):
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
    """N_k(s) = {Z in k : [Z, s] ⊆ s}; always bracket-closed.  Memoized on
    the ambient: the regularization, its fixed-point test and the
    horocyclicity verdict normalize the same nilradical."""
    if s.real:
        raise ValueError("ambient mismatch")
    cached = ambient._normalizers.get(s)
    if cached is not None:
        return cached  # type: ignore[return-value]
    if not ambient.contains_space(s):
        raise ValueError("not inside ambient")
    space = bracket_kernel(ambient.space.basis(), s.basis(), ambient.n, modulo=s)
    out = ambient._normalizers[s] = subalgebra_from_space(ambient, space, verified=True)
    return out


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


def _eigenvalues(ambient: AmbientAlgebra, z: ExactMatrix) -> tuple[list[QI], list[QI]]:
    """``(rational_roots(charpoly(z)), charpoly(z))``, memoized on the
    ambient: nr's rationality check and the regularization meet the same
    matrices again and again within one analysis."""
    entry = ambient._eigenvalues.get(z)
    if entry is None:
        poly = charpoly(z)
        entry = ambient._eigenvalues[z] = (rational_roots(poly), poly)
    return entry
