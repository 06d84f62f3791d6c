"""Parabolic subalgebra machinery over block special-linear ambients.

This module decides parabolicity through invariant flags, iterates the
normalizer regularization to its parabolic fixed point, produces the minimal
and maximal split-Levi parabolic envelopes of an n-reductive subalgebra,
tests horocyclicity of nilpotent subspaces, and computes the largest
subalgebra squeezed between a subalgebra and the sum with its conjugate.

Everything here is exact rational arithmetic; floating point never enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .ambient import AmbientAlgebra
from .errors import ClosureError
from .exact import (
    ExactMatrix,
    Subspace,
    bracket_kernel,
    bracket_space,
    kernel_projector,
    products,
    trace_pairing,
)
from .structure import (
    Subalgebra,
    normalizer,
    sigma_image,
    subalgebra_from_space,
    _bracket_closure,
    _derived,
    _eigenvalues,
    _memo,
)

__all__ = [
    "ParabolicSubalgebra",
    "RegularizationTrace",
    "HorocyclicVerdict",
    "is_parabolic",
    "parabolic_regularization",
    "minimal_envelope",
    "maximal_envelope",
    "is_admissible_envelope",
    "is_horocyclic",
    "largest_intermediate",
    "horocyclic_verdict",
]


# ---------------------------------------------------------------------------
# value objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParabolicSubalgebra:
    """A parabolic subalgebra together with its canonical decomposition.

    ``q = levi ⊕ nilradical`` where ``levi = q ∩ σ(q)`` and ``nilradical`` is
    the ideal of ad-nilpotent elements of the radical.  ``invariant_flag`` is
    the strictly increasing chain of joint-invariant subspaces of the natural
    representation, ending at the full space, each step held as its exact
    orthogonal projector (so the last one is the identity); ``q`` equals the
    stabilizer of that chain intersected with the ambient algebra.
    :func:`is_parabolic` certifies this without solving for the stabilizer:
    ``q`` keeps every step, and ``dim q = Σ_j Σ_{s≤t} g_sj·g_tj − 1``, the
    stabilizer's dimension, with ``g_sj`` the dimension of the ``s``-th
    graded piece of the flag inside the ``j``-th block of the ambient.
    """

    q: Subalgebra
    levi: Subspace
    nilradical: Subspace
    invariant_flag: tuple[ExactMatrix, ...]

    @property
    def ambient(self) -> AmbientAlgebra:
        return self.q.ambient

    @property
    def dim(self) -> int:
        return self.q.dim

    @property
    def flag_dims(self) -> tuple[int, ...]:
        """The dimensions of the flag's steps: the traces of their projectors."""
        return tuple(int(step.trace().re) for step in self.invariant_flag)

    def __repr__(self) -> str:
        steps = ", ".join(map(str, self.flag_dims))
        return f"ParabolicSubalgebra(dim={self.dim}, flag=[{steps}])"


@dataclass(frozen=True)
class RegularizationTrace:
    """The chain produced by iterating v ↦ normalizer of its nilpotent part."""

    chain: tuple[Subalgebra, ...]
    fixed_point: Subalgebra
    steps: int


@dataclass(frozen=True)
class HorocyclicVerdict:
    """Both readings of the horocyclic-nilradical property.

    ``intermediate`` is the largest subalgebra between the input and the sum
    with its conjugate; ``nilpotent_part`` is its nilpotent radical.
    ``horocyclic`` tests that nilpotent part, ``strictly_horocyclic`` tests
    the nilpotent radical of the input itself.  ``witness`` is the parabolic
    whose nilradical realizes ``nilpotent_part`` when ``horocyclic`` holds,
    and ``strict_witness`` the one whose nilradical is the input's nilpotent
    radical when ``strictly_horocyclic`` holds.
    """

    intermediate: Subalgebra
    nilpotent_part: Subspace
    horocyclic: bool
    strictly_horocyclic: bool
    witness: ParabolicSubalgebra | None
    strict_witness: ParabolicSubalgebra | None


# ---------------------------------------------------------------------------
# small linear helpers
# ---------------------------------------------------------------------------


def _center_mats(ambient: AmbientAlgebra, space: Subspace) -> list[ExactMatrix]:
    """Basis of the centralizer of ``space`` inside itself, memoized on the
    ambient."""

    def compute():
        mats = space.basis()
        return tuple(bracket_kernel(mats, mats, space.side).basis())

    return list(_derived(ambient, "center", space, compute))


def _eigenprojectors(ambient: AmbientAlgebra, z_mats) -> list[tuple[tuple, ExactMatrix]]:
    """Joint eigenspaces on Cⁿ of commuting normal ``z_mats``, as
    ``(eigenvalue tuple, orthogonal projector)`` pairs.

    The eigenprojectors ``kernel_projector([z − λ])`` of each ``z`` must sum
    to the identity, which holds exactly when ``z`` is normal with its
    spectrum in ℚ(i), as the center of a σ-stable subalgebra is; otherwise
    an :class:`ArithmeticError` is raised.  Each ``z``'s certified split is
    memoized on the ambient.  Commuting projectors multiply to the projector
    onto the intersection of their ranges, so the nonzero products over one
    eigenvalue of each ``z`` are the joint eigenprojectors.
    """
    n = ambient.n
    identity = ExactMatrix.identity(n)

    def eigensplit(z):
        spectrum, _ = _eigenvalues(ambient, z)
        split = tuple((lam, kernel_projector([z - identity.scale(lam)], n)) for lam in spectrum)
        if sum((f for _, f in split), ExactMatrix.zeros(n)) != identity:
            raise ArithmeticError("weight space decomposition failed")
        return split

    pieces = [((), identity)]
    for z in z_mats:
        split = _derived(ambient, "eigensplit", z, lambda: eigensplit(z))
        pieces = [
            (pieces[i][0] + (split[j][0],), e)
            for i, j, e in products([e for _, e in pieces], [f for _, f in split])
        ]
    return pieces


def _weight_pieces(ambient: AmbientAlgebra, space: Subspace, z_mats) -> list[tuple[tuple, Subspace]]:
    """Joint eigenspace decomposition of ``space`` under commuting ad(z).

    With ``E_s`` the joint eigenprojectors of ``z_mats`` on Cⁿ and ``μ_s``
    their eigenvalue tuples, ad(z) acts on ``E_s·x·E_t`` by ``μ_s − μ_t``,
    so the weight-``w`` piece is spanned by the sums of ``E_s·x·E_t`` over
    the pairs with ``μ_s − μ_t = w``, for ``x`` in a basis of ``space``.
    Pieces come in the order of their weights' ``(re, im)`` keys, and each
    must lie in ``space``: that certifies ``space`` is ad-invariant.
    """
    mus, es = zip(*_eigenprojectors(ambient, z_mats))
    lefts = products(es, space.basis())
    # components[k][w]: the sum of the nonzero E_s·x_k·E_t with μ_s − μ_t = w
    components: dict[int, dict[tuple, ExactMatrix]] = {}
    for a, t, y in products([left for *_, left in lefts], es):
        s, k, _ = lefts[a]
        wt = tuple(p - q for p, q in zip(mus[s], mus[t]))
        sums = components.setdefault(k, {})
        sums[wt] = sums[wt] + y if wt in sums else y
    parts: dict[tuple, list[ExactMatrix]] = {}
    for sums in components.values():
        for wt, y in sums.items():
            if not y.is_zero:
                parts.setdefault(wt, []).append(y)
    order = sorted(parts, key=lambda wt: tuple((c.re, c.im) for c in wt))
    pieces = [(wt, Subspace.span(parts[wt], space.side)) for wt in order]
    if not all(space.contains_space(piece) for _, piece in pieces):
        raise ArithmeticError("weight space decomposition failed")
    return pieces


def _module_closure(act: Subspace, seed: Subspace) -> Subspace:
    """Smallest subspace containing ``seed`` stable under brackets with
    ``act``.  Each round brackets ``act`` only with the span of the
    canonical rows new to the span, those at pivots it did not have (as
    ``_unital_closure`` does)."""
    acc = frontier = seed
    while frontier.dim:
        grown = acc.sum(bracket_space(act, frontier))
        old = set(acc.pivots)
        frontier = Subspace.span(
            [m for m, p in zip(grown.basis(), grown.pivots) if p not in old], seed.side
        )
        acc = grown
    return acc


def _module_summands(ambient: AmbientAlgebra, levi: Subalgebra, mod: Subspace) -> list[Subspace]:
    """Decompose an invariant subspace into summands of the levi action.

    First split by joint eigenvalues of the center of the acting algebra,
    then refine each piece into cyclic submodules when they assemble into a
    clean direct sum; entangled pieces are kept whole.
    """
    if mod.dim == 0:
        return []
    out: list[Subspace] = []
    for _, piece in _weight_pieces(ambient, mod, _center_mats(ambient, levi.space)):
        if piece.dim <= 1 or not levi.dim:
            out.append(piece)
            continue
        chosen: list[Subspace] = []
        covered = Subspace.zero(ambient.n)
        clean = True
        for b in piece.basis():
            if covered.contains_mat(b):
                continue
            cyc = _module_closure(levi.space, Subspace.span([b], ambient.n))
            grown = covered.sum(cyc)
            # dim(A + B) = dim A + dim B − dim(A ∩ B): the count decides A ∩ B = 0
            if grown.dim != covered.dim + cyc.dim:
                clean = False
                break
            chosen.append(cyc)
            covered = grown
        if clean and covered == piece:
            out.extend(chosen)
        else:
            out.append(piece)
    return out


# ---------------------------------------------------------------------------
# parabolicity through invariant flags
# ---------------------------------------------------------------------------


def _invariant_flag(ambient: AmbientAlgebra, nilmats) -> list[ExactMatrix] | None:
    """Iterated joint kernels of a nilpotently-acting span on C^n.

    Each step is ``{v : b·v ∈ previous step for every b}``, the kernel of
    the ``(I − Π)·b`` with ``Π`` the previous step's projector; it contains
    the previous step, and it is the full space when every ``(I − Π)·b`` is
    zero.  Returns the projectors of the strictly increasing chain ending at
    the full space, or ``None`` when the chain stalls (some element acts
    invertibly on a quotient, so the span is not the nilradical of a flag
    stabilizer).
    """
    n = ambient.n
    identity = ExactMatrix.identity(n)
    current = ExactMatrix.zeros(n)
    flag: list[ExactMatrix] = []
    while current != identity:
        images = [m for *_, m in products([identity - current], nilmats)]
        nxt = kernel_projector(images, n) if images else identity
        if nxt == current:
            return None
        current = nxt
        flag.append(current)
    return flag


def _stabilizer_dim(ambient: AmbientAlgebra, graded) -> int:
    """The dimension of the stabilizer in the ambient of a flag that splits
    along the ambient's blocks, from the flag's graded projectors ``E_s``.

    With ``B_j`` the projector onto the ``j``-th block, ``g_sj = tr(E_s·B_j)``
    is the dimension of the ``s``-th graded piece inside block ``j``.  The
    stabilizer in ``gl`` of block ``j`` sends each piece ``t`` into the
    pieces ``s ≤ t``: dimension ``Σ_{s≤t} g_sj·g_tj``.  The stabilizer in
    the block-diagonal ``⊕_j gl`` is their direct sum; it holds the
    identity, whose trace is not zero, so the traceless condition of the
    ambient cuts one dimension: ``Σ_j Σ_{s≤t} g_sj·g_tj − 1``.  Since
    ``Σ_s g_sj`` is the block size ``b_j``, the double sum is
    ``(Σ_j b_j² + Σ_{s,j} g_sj²) / 2``.
    """
    graded_dims = trace_pairing(graded, ambient.block_projectors()).entries
    squares = sum(int(g.re) ** 2 for row in graded_dims for g in row)
    return (sum(b * b for b in ambient.blocks) + squares) // 2 - 1


def is_parabolic(q: Subalgebra) -> tuple[bool, ParabolicSubalgebra | None]:
    """Decide whether ``q`` is the full stabilizer of an invariant flag.

    The candidate flag ``F`` is forced: it is the iterated joint-kernel
    chain of ``n = rad(q) ∩ [q, q]``, the nilpotency-forced part of ``q``.
    ``q`` is parabolic exactly when ``q = stab(F)``, the stabilizer of ``F``
    in the ambient; no kernel over the ambient's basis is solved for it.
    Two checks decide it:

    * every basis element ``x`` of ``q`` keeps every step: with ``E_s`` the
      orthogonal projector onto the ``s``-th graded piece of ``F`` (the
      difference of consecutive steps), ``E_s·x·E_t = 0`` for ``s > t``, in
      one batch of products.  This gives ``q ⊆ stab(F)``.  It holds
      whenever ``n`` is an ideal of ``q``: for ``v`` in a step and ``b`` in
      ``n``, ``b·x·v = x·b·v − [x, b]·v`` lies in the step below;
    * ``dim q = dim stab(F)``, a count read from the graded projectors (see
      :func:`_stabilizer_dim`).  ``n`` lies in the block-diagonal ambient,
      so each step of ``F`` is the direct sum of its parts in the blocks:
      if the step below splits, ``b·v`` lies in it exactly when each
      block part of ``b·v``, which is ``b`` applied to the block part of
      ``v``, does.  The count applies.

    A subspace of a finite-dimensional space with the space's dimension is
    the space: the two checks give ``q = stab(F)``.  Returns the decision
    together with the decomposed witness on success.
    """
    parts = _memo(q, "parabolic", lambda: _parabolic_parts(q))
    if parts is None:
        return False, None
    return True, ParabolicSubalgebra(q, *parts)


def _parabolic_parts(q: Subalgebra) -> tuple[Subspace, Subspace, tuple[ExactMatrix, ...]] | None:
    """``(levi, nilradical, invariant flag)`` of ``q`` when it is parabolic,
    else ``None``."""
    radn = q.rad_derived
    flag = _invariant_flag(q.ambient, radn.basis())
    if flag is None:
        return None
    graded = [flag[0]] + [step - below for below, step in zip(flag, flag[1:])]
    lefts = products(graded, q.basis())
    # E_s·x·E_t for s > t sends piece t into a later step
    if any(lefts[a][0] > t for a, t, _ in products([m for *_, m in lefts], graded)):
        return None
    if q.dim != _stabilizer_dim(q.ambient, graded):
        return None
    levi = q.levi_part.space
    if not _splits(q, levi, radn) or radn != q.nr:
        raise ArithmeticError("parabolic decomposition failed")
    return levi, radn, tuple(flag)


def _splits(q: Subalgebra, levi: Subspace, nil: Subspace) -> bool:
    """The split-Levi identity: ``levi = q ∩ σ(q)`` and ``q = levi ⊕ nil``.
    Memoized on ``q``: parabolic recognition certifies it, and every
    admissibility test of a parabolic on ``q`` reads it."""

    def compute():
        # dim(A + B) = dim A + dim B − dim(A ∩ B): beside the sum, the count decides A ∩ B = 0
        return (
            levi == q.levi_part.space
            and levi.dim + nil.dim == q.dim
            and levi.sum(nil) == q.space
        )

    return _memo(q, ("splits", levi, nil), compute)


# ---------------------------------------------------------------------------
# regularization and the minimal envelope
# ---------------------------------------------------------------------------


def parabolic_regularization(v: Subalgebra) -> RegularizationTrace:
    """Iterate v ↦ normalizer of the nilpotent radical to a fixed point.

    The input must be splittable; the fixed point is checked to be parabolic
    and to contain both the input and its nilpotent radical.
    """
    spaces = _memo(v, "regularization", lambda: _regularization_chain(v))
    chain = tuple(subalgebra_from_space(v.ambient, s, verified=True) for s in spaces)
    return RegularizationTrace(chain, chain[-1], len(chain) - 1)


def _regularization_chain(v: Subalgebra) -> tuple[Subspace, ...]:
    """The spaces of the regularization chain, from ``v`` to its fixed point."""
    if not v.is_splittable:
        raise ValueError("not splittable")
    chain = [v]
    current = v
    while True:
        nxt = normalizer(v.ambient, current.nr)
        if nxt.space == current.space:
            break
        if nxt.dim <= current.dim:
            raise ArithmeticError("regularization failed to grow")
        chain.append(nxt)
        current = nxt
    ok, witness = is_parabolic(current)
    if not ok:
        raise ArithmeticError("regularization fixed point is not parabolic")
    if not current.contains_space(v.space) or not current.nr.contains_space(v.nr):
        raise ArithmeticError("regularization fixed point lost the input")
    return tuple(s.space for s in chain)


def is_admissible_envelope(v: Subalgebra, p: ParabolicSubalgebra) -> bool:
    """Whether a parabolic contains ``v`` admissibly.

    Requires ``v`` inside the parabolic, the nilpotent radical of ``v``
    inside its nilradical, and the split-Levi decomposition through the
    conjugation-stable part, which depends on the parabolic alone and is
    memoized on it.  Memoized on ``v`` by the parabolic's data (its space,
    Levi and nilradical): the envelopes and the fiber data ask it
    again.
    """
    if v.ambient is not p.ambient:
        raise ValueError("ambient mismatch")
    key = ("admissible", p.q.space, p.levi, p.nilradical)
    return _memo(v, key, lambda: _admissible(v, p))


def _admissible(v: Subalgebra, p: ParabolicSubalgebra) -> bool:
    return (
        p.q.contains_space(v.space)
        and p.nilradical.contains_space(v.nr)
        and _splits(p.q, p.levi, p.nilradical)
    )


def minimal_envelope(v: Subalgebra) -> ParabolicSubalgebra:
    """Smallest admissible parabolic envelope of an n-reductive subalgebra.

    It is the regularization fixed point ``e`` itself.  The envelope built
    from ``e`` is ``(e ∩ σ(e)) + n_e``, with ``n_e`` the nilradical of ``e``,
    and :func:`is_parabolic` has certified ``e = (e ∩ σ(e)) ⊕ n_e`` for ``e``,
    whose Levi part is ``e ∩ σ(e)``.  So ``e`` is returned once it is checked
    admissible for ``v``.
    """
    space = _memo(v, "minimal_envelope", lambda: _minimal_envelope(v))
    return is_parabolic(subalgebra_from_space(v.ambient, space, verified=True))[1]


def _minimal_envelope(v: Subalgebra) -> Subspace:
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    e = parabolic_regularization(v).fixed_point
    # the regularization has certified e parabolic
    _, pe = is_parabolic(e)
    if not is_admissible_envelope(v, pe):
        raise ArithmeticError("P0 membership failed")
    return e.space


# ---------------------------------------------------------------------------
# the maximal envelope through weight ascent
# ---------------------------------------------------------------------------


def _classified_weights(amb: AmbientAlgebra, p: ParabolicSubalgebra):
    """Nonzero weight spaces of the ambient under the center ``Z`` of the
    Levi, read from the nilradical ``n`` and its conjugate alone.

    Returns ``(pieces, positive, negative)`` where ``pieces`` maps weight
    tuples to subspaces, and the other two are the weight sets of ``n`` and
    of ``σ(n)``.  Only ``n`` and ``σ(n)`` are decomposed, and three facts are
    certified:

    * neither ``n`` nor ``σ(n)`` has the weight 0;
    * the weight sets of ``n`` and ``σ(n)`` are disjoint;
    * ``dim levi + 2·dim n = dim k``.

    ``Z`` commutes with the Levi, so the Levi has weight 0.
    :func:`_weight_pieces` certifies that ``n`` is the direct sum of its
    pieces, one per weight, each inside the weight space ``k_w`` of that
    weight; so does ``σ(n)``.  Weight spaces of distinct weights are
    independent, so the first two facts make ``levi + n + σ(n)`` a direct
    sum, and the third makes it all of ``k``.  Hence ``k_0 = levi``; for
    ``w ≠ 0``, ``k_w`` is the piece of ``n`` of weight ``w`` when ``w`` is a
    weight of ``n``, that of ``σ(n)`` when it is one of ``σ(n)``, and zero
    otherwise.  These are the pieces of the whole ambient's decomposition,
    and the same classification, without decomposing the ambient.  When a
    fact fails, the ascent stalls.
    """
    z_mats = _center_mats(amb, p.levi)
    positive = dict(_weight_pieces(amb, p.nilradical, z_mats))
    negative = dict(_weight_pieces(amb, sigma_image(amb, p.nilradical), z_mats))
    if (
        any(not any(wt) for wt in (*positive, *negative))
        or positive.keys() & negative.keys()
        or p.levi.dim + 2 * p.nilradical.dim != amb.dim
    ):
        raise ArithmeticError("weight ascent stalled")
    return {**positive, **negative}, set(positive), set(negative)


def _simple_weights(positive: set[tuple]) -> list[tuple]:
    """Indecomposable members of a finite positive weight set."""
    simples = []
    for mu in positive:
        decomposable = False
        for a in positive:
            b = tuple(x - y for x, y in zip(mu, a))
            if any(x for x in b) and b in positive:
                decomposable = True
                break
        if not decomposable:
            simples.append(mu)
    simples.sort(key=lambda wt: tuple((x.re, x.im) for x in wt))
    return simples


def maximal_envelope(v: Subalgebra, start: ParabolicSubalgebra) -> ParabolicSubalgebra:
    """Largest admissible parabolic envelope above ``start``.

    Implements the weight ascent: whenever a simple positive weight does not
    occur in the closure generated by the nilpotent radical of ``v`` and the
    Levi of the current envelope, the opposite weight space is merged in.
    Terminates when the closure realizes the whole envelope; both exact
    termination identities are verified.  The ascent reads only the
    nilpotent radical of ``v`` and ``start``, so its end is memoized on the
    ambient by those: inputs sharing both share the ascent.
    """
    if not is_admissible_envelope(v, start):
        raise ValueError("not in P0")
    amb = v.ambient
    key = (v.nr, start.q.space, start.levi, start.nilradical)
    space = _derived(amb, "weight_ascent", key, lambda: _weight_ascent(v.nr, start))
    if space == start.q.space:
        top = start
    else:
        top = is_parabolic(subalgebra_from_space(amb, space, verified=True))[1]
    if not is_admissible_envelope(v, top):
        raise ArithmeticError("P0 membership failed")
    return top


def _weight_ascent(v_nil: Subspace, start: ParabolicSubalgebra) -> Subspace:
    """The space of the envelope where the weight ascent from ``start``
    under the nilpotent part ``v_nil`` stops."""
    amb = start.ambient
    current = start
    for _ in range(amb.dim + 1):
        table, positive, _ = _classified_weights(amb, current)
        # the envelope is a subalgebra containing the generators
        generated = _bracket_closure(v_nil.sum(current.levi), ceiling=current.q.space)
        occurring = set()
        for wt in positive:
            piece = table[wt]
            # dim(A ∩ B) = dim A + dim B − dim(A + B)
            inter_dim = piece.dim + generated.dim - piece.sum(generated).dim
            if inter_dim == piece.dim:
                occurring.add(wt)
            elif inter_dim:
                raise ArithmeticError("weight ascent stalled")
        missing = [mu for mu in _simple_weights(positive) if mu not in occurring]
        if not missing:
            if generated != current.q.space:
                raise ArithmeticError("weight ascent stalled")
            reach = _module_closure(current.levi, v_nil)
            if reach != current.nilradical:
                raise ArithmeticError("weight ascent stalled")
            return current.q.space
        mu = missing[0]
        neg = table.get(tuple(-x for x in mu))
        if neg is None:
            raise ArithmeticError("weight ascent stalled")
        try:
            bigger = subalgebra_from_space(amb, current.q.space.sum(neg))
        except ClosureError as exc:
            raise ArithmeticError("weight ascent stalled") from exc
        ok, enlarged = is_parabolic(bigger)
        if not ok:
            raise ArithmeticError("weight ascent stalled")
        current = enlarged
    raise ArithmeticError("weight ascent stalled")


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def is_horocyclic(
    ambient: AmbientAlgebra, s: Subspace
) -> tuple[bool, ParabolicSubalgebra | None]:
    """Whether a nilpotent subspace is the nilradical of a parabolic.

    The only candidate is the normalizer of the subspace; the answer is
    positive exactly when that normalizer is parabolic with the subspace as
    its full nilradical.
    """
    if not ambient.contains_space(s):
        raise ValueError("not inside ambient")
    for m in s.basis():
        if not m.is_nilpotent():
            raise ValueError("not nilpotent")
    p = normalizer(ambient, s)
    ok, witness = is_parabolic(p)
    if ok and witness.nilradical == s:
        return True, witness
    return False, None


def largest_intermediate(v: Subalgebra) -> Subalgebra:
    """Largest subalgebra between ``v`` and the sum with its conjugate.

    Searches the submodule lattice of the conjugated nilpotent radical under
    the action of the reductive part of ``v``: candidates are sums of
    summands, scanned largest first; the returned maximum must contain every
    bracket-closed candidate (dominance certificate) and the enlarged pair
    must remain n-reductive.

    ``v`` is closed, so ``v + u`` is closed exactly when ``[v, u]`` and
    ``[u, u]`` lie in it.  A summand ``S`` with ``[nr, S]`` outside
    ``v + σ(nr)`` escapes every candidate, which lies inside ``v + σ(nr)``:
    no candidate containing it is closed, and none is tested.  The first
    closed candidate is the maximum; a later one outside it breaks the
    dominance certificate, and one inside it needs no test.
    """
    space = _memo(v, "largest_intermediate", lambda: _largest_intermediate(v))
    return subalgebra_from_space(v.ambient, space, verified=True)


def _largest_intermediate(v: Subalgebra) -> Subspace:
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    amb = v.ambient
    conj_nil = sigma_image(amb, v.nr)
    summands = _module_summands(amb, v.levi_part, conj_nil)
    v_mats, nil_mats = v.basis(), v.nr.basis()
    outer = v.space.sum(conj_nil)
    escapes = {
        i
        for i, piece in enumerate(summands)
        if outer.bracket_outside(nil_mats, piece.basis()) is not None
    }
    subsets = []
    for size in range(len(summands), -1, -1):
        subsets.extend(combinations(range(len(summands)), size))
    subsets.sort(key=lambda c: (-sum(summands[i].dim for i in c), c))
    # the sum of each candidate's summands, extending its longest prefix's
    sums = {(): Subspace.zero(amb.n)}
    best_u = None
    for combo in subsets:
        if escapes.intersection(combo):
            continue
        k = len(combo)
        while combo[:k] not in sums:
            k -= 1
        u = sums[combo[:k]]
        for j in range(k, len(combo)):
            u = sums[combo[:j + 1]] = u.sum(summands[combo[j]])
        if best_u is not None and best_u.contains_space(u):
            continue
        space = v.space.sum(u)
        if not space.contains_brackets(v_mats, u.basis()):
            continue
        if best_u is not None:
            raise ArithmeticError("maximality certificate failed")
        best_u = u
        best = subalgebra_from_space(amb, space, verified=True)
    if not best.n_reductive_verdict.ok:
        raise ArithmeticError("largest intermediate subalgebra is not n-reductive")
    return best.space


def horocyclic_verdict(v: Subalgebra) -> HorocyclicVerdict:
    """Evaluate both horocyclicity readings for an n-reductive subalgebra."""
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    w = largest_intermediate(v)
    w_nil = w.nr
    ok, witness = is_horocyclic(v.ambient, w_nil)
    strict, strict_witness = is_horocyclic(v.ambient, v.nr)
    return HorocyclicVerdict(w, w_nil, ok, strict, witness, strict_witness)

