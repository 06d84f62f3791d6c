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
from .exact import ExactMatrix, Subspace, bracket_kernel, bracket_space, kernel_projector, kernel_space
from .structure import (
    Subalgebra,
    normalizer,
    subalgebra_from_space,
    _bracket_closure,
    _eigenvalues,
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
    "combine_parabolics",
    "is_horocyclic",
    "largest_intermediate",
    "horocyclic_verdict",
    "strengthen",
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


def _center_mats(space: Subspace) -> list[ExactMatrix]:
    """Basis of the centralizer of ``space`` inside itself."""
    mats = space.basis()
    return bracket_kernel(mats, mats, space.side).basis()


def _eigenprojectors(ambient: AmbientAlgebra, z_mats) -> list[tuple[tuple, ExactMatrix]]:
    """Joint eigenspaces on Cⁿ of commuting normal ``z_mats``, as
    ``(eigenvalue tuple, orthogonal projector)`` pairs.

    The eigenprojectors ``kernel_projector([z − λ])`` of each ``z`` must sum
    to the identity, which holds exactly when ``z`` is normal with its
    spectrum in ℚ(i), as the center of a σ-stable subalgebra is; otherwise
    an :class:`ArithmeticError` is raised.  Commuting projectors multiply to
    the projector onto the intersection of their ranges, so the nonzero
    products over one eigenvalue of each ``z`` are the joint eigenprojectors.
    """
    n = ambient.n
    identity = ExactMatrix.identity(n)
    pieces = [((), identity)]
    for z in z_mats:
        spectrum, _ = _eigenvalues(ambient, z)
        split = [(lam, kernel_projector([z - identity.scale(lam)], n)) for lam in spectrum]
        if sum((f for _, f in split), ExactMatrix.zeros(n)) != identity:
            raise ArithmeticError("weight space decomposition failed")
        products = [(wt + (lam,), e @ f) for wt, e in pieces for lam, f in split]
        pieces = [(wt, e) for wt, e in products if not e.is_zero]
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
    projectors = _eigenprojectors(ambient, z_mats)
    parts: dict[tuple, list[ExactMatrix]] = {}
    for x in space.basis():
        components: dict[tuple, ExactMatrix] = {}
        for mu_s, e_s in projectors:
            left = e_s @ x
            if left.is_zero:
                continue
            for mu_t, e_t in projectors:
                y = left @ e_t
                if y.is_zero:
                    continue
                wt = tuple(a - b for a, b in zip(mu_s, mu_t))
                components[wt] = components[wt] + y if wt in components else y
        for wt, y in components.items():
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
    for _, piece in _weight_pieces(ambient, mod, _center_mats(levi.space)):
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
            if cyc.intersect(covered).dim:
                clean = False
                break
            chosen.append(cyc)
            covered = covered.sum(cyc)
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
    the previous step.  Returns the projectors of the strictly increasing
    chain ending at the full space, or ``None`` when the chain stalls (some
    element acts invertibly on a quotient, so the span is not the
    nilradical of a flag stabilizer).
    """
    n = ambient.n
    identity = ExactMatrix.identity(n)
    current = ExactMatrix.zeros(n)
    flag: list[ExactMatrix] = []
    while current != identity:
        nxt = kernel_projector([(identity - current) @ b for b in nilmats], n)
        if nxt == current:
            return None
        current = nxt
        flag.append(current)
    return flag


def _flag_stabilizer(ambient: AmbientAlgebra, flag) -> Subalgebra:
    """The subalgebra of the ambient preserving every step of the flag:
    ``x`` keeps the range of ``Π`` exactly when ``(I − Π)·x·Π = 0``."""
    kmats = ambient.space.basis()
    n = ambient.n
    identity = ExactMatrix.identity(n)
    images = [[(identity - step) @ x @ step for x in kmats] for step in flag[:-1]]
    return subalgebra_from_space(ambient, kernel_space(kmats, images, n), verified=True)


def is_parabolic(q: Subalgebra) -> tuple[bool, ParabolicSubalgebra | None]:
    """Decide whether ``q`` is the full stabilizer of an invariant flag.

    The candidate flag is forced: it is the iterated joint-kernel chain of
    the nilpotency-forced part of ``q`` (radical meets derived algebra).
    Returns the decision together with the decomposed witness on success.
    """
    cached = q._cache.get("parabolic")
    if cached is not None:
        return cached
    result: tuple[bool, ParabolicSubalgebra | None]
    radn = q.radical.intersect(q.derived)
    flag = _invariant_flag(q.ambient, radn.basis())
    if flag is None:
        result = (False, None)
    else:
        stab = _flag_stabilizer(q.ambient, flag)
        if stab.space != q.space:
            result = (False, None)
        else:
            levi = q.space.intersect(q.ambient.conj_space(q.space))
            if (
                levi.sum(radn) != q.space
                or levi.intersect(radn).dim != 0
                or radn != q.nr
            ):
                raise ArithmeticError("parabolic decomposition failed")
            result = (True, ParabolicSubalgebra(q, levi, radn, tuple(flag)))
    q._cache["parabolic"] = result
    return result


# ---------------------------------------------------------------------------
# regularization and the minimal envelope
# ---------------------------------------------------------------------------


def parabolic_regularization(v: Subalgebra) -> RegularizationTrace:
    """Iterate v ↦ normalizer of the nilpotent radical to a fixed point.

    The input must be splittable; the fixed point is checked to be parabolic
    and to contain both the input and its nilpotent radical.
    """
    cached = v._cache.get("regularization")
    if cached is not None:
        return cached
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
    trace = RegularizationTrace(tuple(chain), current, len(chain) - 1)
    v._cache["regularization"] = trace
    return trace


def is_admissible_envelope(v: Subalgebra, p: ParabolicSubalgebra) -> bool:
    """Whether a parabolic contains ``v`` admissibly.

    Requires ``v`` inside the parabolic, the nilpotent radical of ``v``
    inside its nilradical, and the split-Levi decomposition through the
    conjugation-stable part.
    """
    if v.ambient is not p.ambient:
        raise ValueError("ambient mismatch")
    if not p.q.contains_space(v.space):
        return False
    if not p.nilradical.contains_space(v.nr):
        return False
    conj_q = v.ambient.conj_space(p.q.space)
    inter = p.q.space.intersect(conj_q)
    return (
        inter == p.levi
        and inter.sum(p.nilradical) == p.q.space
        and inter.intersect(p.nilradical).dim == 0
    )


def minimal_envelope(v: Subalgebra) -> ParabolicSubalgebra:
    """Smallest admissible parabolic envelope of an n-reductive subalgebra.

    Built from the regularization fixed point ``e`` as the sum of ``e`` meets
    its conjugate with the nilradical of ``e``.
    """
    cached = v._cache.get("minimal_envelope")
    if cached is not None:
        return cached
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    trace = parabolic_regularization(v)
    e = trace.fixed_point
    _, pe = is_parabolic(e)
    inter = e.space.intersect(v.ambient.conj_space(e.space))
    q_space = inter.sum(pe.nilradical)
    if q_space == e.space:
        q = e
    else:
        q = subalgebra_from_space(v.ambient, q_space)
    ok, pq = is_parabolic(q)
    if not ok or not is_admissible_envelope(v, pq):
        raise ArithmeticError("P0 membership failed")
    v._cache["minimal_envelope"] = pq
    return pq


# ---------------------------------------------------------------------------
# the maximal envelope through weight ascent
# ---------------------------------------------------------------------------


def _classified_weights(amb: AmbientAlgebra, p: ParabolicSubalgebra):
    """Weight decomposition of the ambient under the center of the Levi.

    Returns ``(pieces, positive, negative)`` where ``pieces`` maps weight
    tuples to subspaces, and the other two are the weight sets lying in the
    nilradical and in its conjugate.  The zero-weight part must equal the
    Levi and every other piece must land on one side.
    """
    table = dict(_weight_pieces(amb, amb.space, _center_mats(p.levi)))
    conj_nil = amb.conj_space(p.nilradical)
    positive: set[tuple] = set()
    negative: set[tuple] = set()
    zero_sum = Subspace.zero(amb.n)
    for wt, piece in table.items():
        if not any(x for x in wt):
            zero_sum = zero_sum.sum(piece)
        elif p.nilradical.contains_space(piece):
            positive.add(wt)
        elif conj_nil.contains_space(piece):
            negative.add(wt)
        else:
            raise ArithmeticError("weight ascent stalled")
    if zero_sum != p.levi:
        raise ArithmeticError("weight ascent stalled")
    return table, positive, negative


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
    termination identities are verified.
    """
    if not is_admissible_envelope(v, start):
        raise ValueError("not in P0")
    amb = v.ambient
    v_nil = v.nr
    current = start
    for _ in range(amb.dim + 1):
        table, positive, _ = _classified_weights(amb, current)
        generated = _bracket_closure(v_nil.sum(current.levi))
        occurring = set()
        for wt in positive:
            piece = table[wt]
            inter_dim = piece.intersect(generated).dim
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
            if not is_admissible_envelope(v, current):
                raise ArithmeticError("P0 membership failed")
            return current
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
# lattice operations and predicates
# ---------------------------------------------------------------------------


def combine_parabolics(
    q1: ParabolicSubalgebra, q2: ParabolicSubalgebra
) -> ParabolicSubalgebra:
    """Intersection of two parabolics completed by the first nilradical."""
    if q1.ambient is not q2.ambient:
        raise ValueError("ambient mismatch")
    space = q1.q.space.intersect(q2.q.space).sum(q1.nilradical)
    combined = subalgebra_from_space(q1.ambient, space)
    ok, witness = is_parabolic(combined)
    if not ok:
        raise ArithmeticError("combination is not parabolic")
    return witness


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
    """
    cached = v._cache.get("largest_intermediate")
    if cached is not None:
        return cached
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    amb = v.ambient
    conj_nil = amb.conj_space(v.nr)
    summands = _module_summands(amb, v.levi_part, conj_nil)
    closed: list[tuple[Subspace, Subalgebra]] = []
    subsets = []
    for size in range(len(summands), -1, -1):
        subsets.extend(combinations(range(len(summands)), size))
    subsets.sort(key=lambda c: (-sum(summands[i].dim for i in c), c))
    for combo in subsets:
        u = Subspace.zero(amb.n)
        for i in combo:
            u = u.sum(summands[i])
        try:
            cand = subalgebra_from_space(amb, v.space.sum(u))
        except ClosureError:
            continue
        closed.append((u, cand))
    best_u, best = closed[0]
    for u, _ in closed[1:]:
        if not best_u.contains_space(u):
            raise ArithmeticError("maximality certificate failed")
    if not best.n_reductive_verdict.ok:
        raise ArithmeticError("largest intermediate subalgebra is not n-reductive")
    v._cache["largest_intermediate"] = best
    return best


def horocyclic_verdict(v: Subalgebra) -> HorocyclicVerdict:
    """Evaluate both horocyclicity readings for an n-reductive subalgebra."""
    if not v.n_reductive_verdict.ok:
        raise ValueError("not n-reductive")
    w = largest_intermediate(v)
    w_nil = w.nr
    ok, witness = is_horocyclic(v.ambient, w_nil)
    strict, strict_witness = is_horocyclic(v.ambient, v.nr)
    return HorocyclicVerdict(w, w_nil, ok, strict, witness, strict_witness)


def strengthen(v: Subalgebra, p: ParabolicSubalgebra) -> Subalgebra:
    """Enlarge ``v`` by the nilradical of an admissible envelope.

    The result is verified bracket-closed, n-reductive, and to share its
    reductive part with ``v``.
    """
    if not is_admissible_envelope(v, p):
        raise ValueError("not in P0")
    enlarged = subalgebra_from_space(v.ambient, v.space.sum(p.nilradical))
    if not enlarged.n_reductive_verdict.ok:
        raise ArithmeticError("strengthening lost n-reductiveness")
    if enlarged.levi_part.space != v.levi_part.space:
        raise ArithmeticError("strengthening changed the reductive part")
    return enlarged
