"""Ambient reductive matrix Lie algebras.

An :class:`AmbientAlgebra` realizes either the full traceless algebra
``sl_n(C)`` or a block-diagonal subalgebra ``s(gl_a(C) x gl_b(C) x ...)``
inside ``sl_n(C)``.  It carries the antilinear conjugation fixing the
compact real form (traceless anti-Hermitian block matrices), the trace
form, and the real eigenspace decomposition ``k = k0 (+) p0`` into
anti-Hermitian and Hermitian parts.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import QI, QI_I, ExactMatrix, Subspace, trace_pairing

__all__ = ["AmbientAlgebra", "special_linear", "block_special_linear"]


class AmbientAlgebra:
    """The ambient algebra ``k`` with its compact-form data.

    Do not construct directly; use :func:`special_linear` or
    :func:`block_special_linear` so that instances are shared and the
    per-instance caches are effective.
    """

    def __init__(self, blocks: tuple[int, ...]):
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("block sizes must be positive")
        self.blocks = tuple(int(b) for b in blocks)
        self.n = sum(self.blocks)
        self.kind = (
            "special_linear" if len(self.blocks) == 1 else "block_special_linear"
        )
        self._subalgebras: dict[Subspace, object] = {}
        # (roots in Q(i), charpoly) per matrix, kept by structure._eigenvalues
        self._eigenvalues: dict[ExactMatrix, tuple] = {}
        # N_k(s) per complex subspace s, kept by structure.normalizer
        self._normalizers: dict[Subspace, object] = {}
        self._space: Subspace | None = None
        self._k0: Subspace | None = None
        self._p0: Subspace | None = None

    # -- canonical bases --------------------------------------------------------
    def _offdiag_positions(self) -> list[tuple[int, int]]:
        """The off-diagonal positions inside the diagonal blocks, row-major."""
        out, start = [], 0
        for b in self.blocks:
            block = range(start, start + b)
            out += [(i, j) for i in block for j in block if i != j]
            start += b
        return out

    def basis(self) -> list[ExactMatrix]:
        """Complex basis of k: admissible off-diagonal units and traceless
        difference diagonals."""
        n = self.n
        mats = [ExactMatrix.unit(n, i, j) for i, j in self._offdiag_positions()]
        for i in range(n - 1):
            mats.append(
                ExactMatrix.diagonal(
                    [1 if t == i else (-1 if t == i + 1 else 0) for t in range(n)]
                )
            )
        return mats

    @property
    def space(self) -> Subspace:
        """k as a complex subspace of the n x n matrices."""
        if self._space is None:
            self._space = Subspace.span(self.basis(), self.n)
        return self._space

    @property
    def k0(self) -> Subspace:
        """The compact real form: traceless anti-Hermitian block matrices."""
        if self._k0 is None:
            n = self.n
            mats: list[ExactMatrix] = []
            for i, j in self._offdiag_positions():
                if i < j:
                    mats.append(
                        ExactMatrix.unit(n, i, j) - ExactMatrix.unit(n, j, i)
                    )
                    mats.append(
                        (ExactMatrix.unit(n, i, j) + ExactMatrix.unit(n, j, i))
                        .scale(QI_I)
                    )
            for i in range(n - 1):
                mats.append(
                    ExactMatrix.diagonal(
                        [
                            QI_I if t == i else (-QI_I if t == i + 1 else QI(0))
                            for t in range(n)
                        ]
                    )
                )
            self._k0 = Subspace.span(mats, n, real=True)
        return self._k0

    @property
    def p0(self) -> Subspace:
        """Traceless Hermitian block matrices (the −1 eigenspace of σ): i k0."""
        if self._p0 is None:
            self._p0 = Subspace.span(
                [m.scale(QI_I) for m in self.k0.basis()], self.n, real=True
            )
        return self._p0

    @property
    def dim(self) -> int:
        """Complex dimension of k."""
        return sum(b * b for b in self.blocks) - 1

    # -- structure maps -----------------------------------------------------------
    def sigma(self, x: ExactMatrix) -> ExactMatrix:
        """The antilinear conjugation fixing k0: X ↦ −X*."""
        return -x.star()

    def conj_space(self, s: Subspace) -> Subspace:
        """Image of a complex subspace of k under σ."""
        if s.real:
            raise ValueError("ambient mismatch")
        return Subspace.span([self.sigma(m) for m in s.basis()], self.n)

    def beta(self, x: ExactMatrix, y: ExactMatrix) -> QI:
        """Trace form tr(XY)."""
        return trace_pairing([x], [y]).entries[0][0]

    # -- membership ---------------------------------------------------------------
    def contains(self, x: ExactMatrix) -> bool:
        """Membership in k; False for a matrix of another shape."""
        if x.rows != self.n or x.cols != self.n:
            return False
        return self.space.contains_mat(x)

    def contains_space(self, s: Subspace) -> bool:
        """Whether a complex subspace lies in k; False on another side."""
        return s.side == self.n and self.space.contains_space(s)

    def zero_space(self, real: bool = False) -> Subspace:
        return Subspace.zero(self.n, real=real)

    # -- misc -----------------------------------------------------------------------
    def describe(self) -> str:
        if self.kind == "special_linear":
            return f"sl({self.n})"
        inner = " x ".join(f"gl({b})" for b in self.blocks)
        return f"s({inner})"

    def __repr__(self) -> str:
        return f"AmbientAlgebra({self.describe()})"

    def __eq__(self, other) -> bool:
        return isinstance(other, AmbientAlgebra) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)


@lru_cache(maxsize=None)
def _cached_ambient(blocks: tuple[int, ...]) -> AmbientAlgebra:
    return AmbientAlgebra(blocks)


def special_linear(n: int) -> AmbientAlgebra:
    """The ambient sl_n(C)."""
    return _cached_ambient((n,))


def block_special_linear(blocks) -> AmbientAlgebra:
    """The ambient s(gl_{b1} x gl_{b2} x ...) inside sl_n, n = sum of blocks."""
    return _cached_ambient(tuple(int(b) for b in blocks))
