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
    QI,
    QI_ZERO,
    ExactMatrix,
    Subspace,
    VectorSpan,
    bracket,
    subspace_intersect,
    subspace_sum,
    _columns_to_rows,
    _kernel_mats,
    _kernel_num,
    _matrix_from_columns,
)
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
    representation, ending at the full space; ``q`` equals the stabilizer of
    that chain intersected with the ambient algebra.
    """

    q: Subalgebra
    levi: Subspace
    nilradical: Subspace
    invariant_flag: tuple[VectorSpan, ...]

    @property
    def ambient(self) -> AmbientAlgebra:
        return self.q.ambient

    @property
    def dim(self) -> int:
        return self.q.dim

    def __repr__(self) -> str:
        steps = ", ".join(str(w.dim) for w in self.invariant_flag)
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
    if not mats:
        return []
    rows = []
    for b in mats:
        brackets = [bracket(x, b) for x in mats]
        rows += _columns_to_rows([(br._den, br._terms) for br in brackets])
    return _kernel_mats(mats, rows)


def _ad_matrix(z: ExactMatrix, space: Subspace) -> ExactMatrix:
    """Matrix of ad(z) restricted to an invariant subspace, in its basis."""
    cols = []
    for b in space.basis():
        br = bracket(z, b)
        try:
            cols.append(space._coordinate_num(br._den, br._terms, "outside"))
        except ValueError as exc:
            raise ArithmeticError("weight space decomposition failed") from exc
    return _matrix_from_columns(cols)


def _eigensplit(space: Subspace, z: ExactMatrix, candidates) -> list[tuple[QI, Subspace]]:
    """Split an ad(z)-invariant subspace into exact eigenspaces.

    ``candidates`` is a finite set of scalars guaranteed to contain every
    eigenvalue; the split must account for the whole space (the action is
    semisimple here), otherwise an :class:`ArithmeticError` is raised.
    """
    m = space.dim
    if m == 0:
        return []
    basis = space.basis()
    mat = _ad_matrix(z, space)
    pieces = []
    total = 0
    for lam in candidates:
        shifted = mat - ExactMatrix.identity(m).scale(lam)
        kernel = _kernel_mats(basis, shifted._row_nums())
        if not kernel:
            continue
        piece = Subspace.span(kernel, space.side)
        total += piece.dim
        pieces.append((lam, piece))
    if total != m:
        raise ArithmeticError("weight space decomposition failed")
    return pieces


def _action_eigenvalue_candidates(ambient: AmbientAlgebra, z: ExactMatrix) -> list[QI]:
    """All pairwise differences of the natural eigenvalues of ``z``.

    These contain every eigenvalue of ad(z) on the ambient algebra whenever
    the natural action of ``z`` splits over the rationals.
    """
    spectrum, _ = _eigenvalues(ambient, z)
    diffs = {QI_ZERO}
    for a in spectrum:
        for b in spectrum:
            diffs.add(a - b)
    return sorted(diffs, key=lambda c: (c.re, c.im))


def _weight_pieces(ambient: AmbientAlgebra, space: Subspace, z_mats) -> list[tuple[tuple, Subspace]]:
    """Joint eigenspace decomposition of ``space`` under commuting ad(z)."""
    pieces: list[tuple[tuple, Subspace]] = [((), space)]
    for z in z_mats:
        candidates = _action_eigenvalue_candidates(ambient, z)
        refined = []
        for wt, sub in pieces:
            for lam, piece in _eigensplit(sub, z, candidates):
                refined.append((wt + (lam,), piece))
        pieces = refined
    return pieces


def _module_closure(ambient: AmbientAlgebra, act_mats, seed: Subspace) -> Subspace:
    """Smallest subspace containing ``seed`` stable under brackets with ``act_mats``."""
    acc = seed
    while True:
        gen = [bracket(l, a) for l in act_mats for a in acc.basis()]
        new = acc.sum(Subspace.span(gen, ambient.n)) if gen else acc
        if new.dim == acc.dim:
            return acc
        acc = new


def _module_summands(ambient: AmbientAlgebra, levi: Subalgebra, mod: Subspace) -> list[Subspace]:
    """Decompose an invariant subspace into summands of the levi action.

    First split by joint eigenvalues of the center of the acting algebra,
    then refine each piece into cyclic submodules when they assemble into a
    clean direct sum; entangled pieces are kept whole.
    """
    if mod.dim == 0:
        return []
    act = levi.basis()
    pieces = [mod]
    for z in _center_mats(levi.space):
        candidates = _action_eigenvalue_candidates(ambient, z)
        pieces = [p for sub in pieces for _, p in _eigensplit(sub, z, candidates)]
    out: list[Subspace] = []
    for piece in pieces:
        if piece.dim <= 1 or not act:
            out.append(piece)
            continue
        chosen: list[Subspace] = []
        covered = Subspace.zero(ambient.n)
        clean = True
        for b in piece.basis():
            if covered.contains_mat(b):
                continue
            cyc = _module_closure(ambient, act, Subspace.span([b], ambient.n))
            if subspace_intersect(cyc, covered).dim:
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


def _invariant_flag(ambient: AmbientAlgebra, nilmats) -> list[VectorSpan] | None:
    """Iterated joint kernels of a nilpotently-acting span on C^n.

    Returns the strictly increasing chain ending at the full space, or
    ``None`` when the chain stalls (some element acts invertibly on a
    quotient, so the span is not the nilradical of a flag stabilizer).
    """
    n = ambient.n
    current = VectorSpan._of(n, (), ())
    flag: list[VectorSpan] = []
    while current.dim < n:
        rows = []
        for b in nilmats:
            columns = b.transpose()._row_nums()
            rows += _columns_to_rows([current._residue(b._den, c) for c in columns])
        nxt = VectorSpan._of(n, *_kernel_num(rows, n))
        if nxt.dim <= current.dim:
            return None
        current = nxt
        flag.append(current)
    return flag


def _flag_stabilizer(ambient: AmbientAlgebra, flag) -> Subalgebra:
    """The subalgebra of the ambient preserving every step of the flag."""
    kmats = ambient.space.basis()
    n = ambient.n
    rows = []
    for step in flag:
        if step.dim == n:
            continue
        for u, p in zip(step._irows, step.pivots):
            rows += _columns_to_rows(
                [step._residue(*x._apply(u[p][0], u)) for x in kmats]
            )
    space = Subspace.span(_kernel_mats(kmats, rows), n)
    return subalgebra_from_space(ambient, space, verified=True)


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
    radn = subspace_intersect(q.radical, q.derived)
    flag = _invariant_flag(q.ambient, radn.basis())
    if flag is None:
        result = (False, None)
    else:
        stab = _flag_stabilizer(q.ambient, flag)
        if stab.space != q.space:
            result = (False, None)
        else:
            levi = subspace_intersect(q.space, q.ambient.conj_space(q.space))
            if (
                subspace_sum(levi, radn) != q.space
                or subspace_intersect(levi, radn).dim != 0
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
    inter = subspace_intersect(p.q.space, conj_q)
    return (
        inter == p.levi
        and subspace_sum(inter, p.nilradical) == p.q.space
        and subspace_intersect(inter, p.nilradical).dim == 0
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
    inter = subspace_intersect(e.space, v.ambient.conj_space(e.space))
    q_space = subspace_sum(inter, pe.nilradical)
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
    z_mats = _center_mats(p.levi)
    pieces = _weight_pieces(amb, amb.space, z_mats)
    conj_nil = amb.conj_space(p.nilradical)
    table: dict[tuple, Subspace] = {}
    positive: set[tuple] = set()
    negative: set[tuple] = set()
    zero_sum = Subspace.zero(amb.n)
    for wt, piece in pieces:
        if wt in table:
            raise ArithmeticError("weight ascent stalled")
        table[wt] = piece
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
            inter_dim = subspace_intersect(piece, generated).dim
            if inter_dim == piece.dim:
                occurring.add(wt)
            elif inter_dim:
                raise ArithmeticError("weight ascent stalled")
        missing = [mu for mu in _simple_weights(positive) if mu not in occurring]
        if not missing:
            if generated != current.q.space:
                raise ArithmeticError("weight ascent stalled")
            reach = _module_closure(amb, current.levi.basis(), v_nil)
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
            bigger = subalgebra_from_space(amb, subspace_sum(current.q.space, neg))
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
    space = subspace_sum(
        subspace_intersect(q1.q.space, q2.q.space), q1.nilradical
    )
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
            cand = subalgebra_from_space(amb, subspace_sum(v.space, u))
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
    enlarged = subalgebra_from_space(v.ambient, subspace_sum(v.space, p.nilradical))
    if not enlarged.n_reductive_verdict.ok:
        raise ArithmeticError("strengthening lost n-reductiveness")
    if enlarged.levi_part.space != v.levi_part.space:
        raise ArithmeticError("strengthening changed the reductive part")
    return enlarged
