"""Built-in library of worked homogeneous-space examples.

Each entry packages an ambient algebra, a distinguished subalgebra, and the
record of invariants the analysis pipeline is expected to reproduce for it.
The registry doubles as the structural regression suite: running the full
analysis on every entry and diffing against ``expected`` is the primary
end-to-end check of the library.  :func:`comparisons` is that diff, the one
that ``analyze``, ``verify`` and the acceptance checks share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .ambient import AmbientAlgebra, block_special_linear, special_linear
from .exact import QI, ExactMatrix
from .structure import Subalgebra, make_subalgebra

__all__ = [
    "ExpectedInvariants",
    "CatalogEntry",
    "comparisons",
    "entry_names",
    "build",
    "parse_gaussian",
    "REFERENCE_PARAMS",
    "grassmann_parameter_grid",
]


# --------------------------------------------------------------------------
# records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectedInvariants:
    """Invariants an entry is expected to exhibit.

    Field names double as the keys used in serialized reports, so they are
    part of the interchange schema and kept short.  ``None`` means the value
    is not pinned for the entry (either unknown or undefined, e.g. the Witt
    bound when the characteristic space is empty).
    """

    n_reductive: bool
    strict_hnr: bool | None = None
    hnr: bool | None = None
    cr_type: tuple[int, int] | None = None
    witt: int | None = None
    f0_dim: int | None = None
    notes: str = ""


# Each field that ``ExpectedInvariants`` may pin, with the key of the
# analysis report that holds its computed value.
_REPORT_KEYS = (
    ("n_reductive", "n_reductive"),
    ("hnr", "hnr"),
    ("strict_hnr", "strict_hnr"),
    ("cr_type", "cr_type"),
    ("f0_dim", "f0_dim"),
    ("witt", "witt_lower_bound"),
)


def comparisons(
    report: Mapping[str, Any], expected: ExpectedInvariants
) -> list[tuple[str, Any, Any]]:
    """``(field, computed, expected)`` for every field that ``expected``
    pins, in the order of ``_REPORT_KEYS``.

    ``computed`` is read from an ``analyze`` report (the ``value`` of a
    tagged field).  A pinned field that the report lacks or leaves null is
    compared as ``None``, so it shows as a mismatch instead of being
    skipped.
    """
    found = []
    for field, key in _REPORT_KEYS:
        wanted = getattr(expected, field)
        if wanted is None:
            continue
        computed = report.get(key)
        if isinstance(computed, dict):
            computed = computed.get("value")
        if field == "cr_type":
            wanted = tuple(wanted)
            computed = None if computed is None else tuple(computed)
        found.append((field, computed, wanted))
    return found


@dataclass(frozen=True)
class CatalogEntry:
    """A named example: ambient algebra, subalgebra, and expected invariants."""

    name: str
    ambient: AmbientAlgebra
    subalgebra: Subalgebra
    expected: ExpectedInvariants
    params: Mapping[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CatalogEntry({self.name!r}, ambient={self.ambient.describe()}, "
            f"dim={self.subalgebra.dim})"
        )


# --------------------------------------------------------------------------
# construction helpers
# --------------------------------------------------------------------------


def _require_int(params: Mapping[str, object], key: str) -> int:
    value = params.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"invalid parameters: {key} must be an integer, got {value!r}")
    return value


def _check_keys(params: Mapping[str, object], allowed: set[str]) -> None:
    unexpected = sorted(set(params) - allowed)
    if unexpected:
        accepted = ", ".join(sorted(allowed)) or "none"
        raise ValueError(
            f"invalid parameters: unexpected {', '.join(unexpected)} "
            f"(accepted: {accepted})"
        )


def parse_gaussian(value: object) -> QI:
    """One scalar from its JSON form: an ``[re, im]`` pair whose parts are
    ints or rational strings (``"-3/4"``); booleans are rejected."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"matrix entry must be a [re, im] pair, got {value!r}")
    parts = []
    for part in value:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise ValueError(f"invalid rational entry: {part!r}")
        try:
            parts.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational entry: {part!r}") from exc
    return QI(*parts)


# --------------------------------------------------------------------------
# entry builders
# --------------------------------------------------------------------------


def _build_su22_f12(params: Mapping[str, object]) -> CatalogEntry:
    _check_keys(params, set())
    amb = block_special_linear((2, 2))
    e = ExactMatrix.unit
    gens = [
        ExactMatrix.diagonal([1, -1, 1, -1]),
        e(4, 0, 1) + e(4, 2, 3),
    ]
    v = make_subalgebra(amb, gens)
    expected = ExpectedInvariants(
        n_reductive=True,
        strict_hnr=False,
        hnr=True,
        cr_type=(1, 4),
        witt=0,
        f0_dim=4,
        notes=(
            "Pair of coupled 2x2 blocks.  The largest intermediate "
            "subalgebra is a diagonally embedded copy of the traceless "
            "2x2 matrices, whose nilpotent part vanishes; the vector-valued "
            "Levi form is identically zero."
        ),
    )
    return CatalogEntry("su22_f12", amb, v, expected)


def _build_su23_f13(params: Mapping[str, object]) -> CatalogEntry:
    _check_keys(params, set())
    amb = block_special_linear((2, 3))
    e = ExactMatrix.unit
    gens = [
        ExactMatrix.diagonal([1, 0, 1, -2, 0]),
        ExactMatrix.diagonal([0, 1, 0, -2, 1]),
        e(5, 0, 1) + e(5, 2, 4),
        e(5, 3, 4),
    ]
    v = make_subalgebra(amb, gens)
    expected = ExpectedInvariants(
        n_reductive=True,
        strict_hnr=False,
        hnr=False,
        cr_type=(2, 6),
        witt=None,
        f0_dim=2,
        notes=(
            "Coupled line-in-plane configuration.  The normalizer of the "
            "nilpotent part is a seven-dimensional non-parabolic algebra, "
            "strictly smaller than the nine-dimensional envelope reached by "
            "weight ascent; the largest intermediate subalgebra is the input "
            "itself, so neither horocyclic verdict holds."
        ),
    )
    return CatalogEntry("su23_f13", amb, v, expected)


def _build_su23_f12(params: Mapping[str, object]) -> CatalogEntry:
    _check_keys(params, set())
    amb = block_special_linear((2, 3))
    e = ExactMatrix.unit
    gens = [
        ExactMatrix.diagonal([1, 0, 1, 0, -2]),
        ExactMatrix.diagonal([0, 1, 0, 1, -2]),
        e(5, 0, 1) + e(5, 2, 3),
        e(5, 2, 4),
        e(5, 3, 4),
    ]
    v = make_subalgebra(amb, gens)
    expected = ExpectedInvariants(
        n_reductive=True,
        strict_hnr=False,
        hnr=True,
        cr_type=(3, 4),
        witt=None,
        f0_dim=4,
        notes=(
            "Coupled plane-in-plane configuration.  The largest intermediate "
            "subalgebra is one dimension larger than the input and its "
            "nilpotent part is horocyclic, while the input's own nilpotent "
            "part is not."
        ),
    )
    return CatalogEntry("su23_f12", amb, v, expected)


# Cross-block positions (1-indexed groups) whose entries may be nonzero in
# the four-group staircase pattern; all seven remaining off-diagonal
# positions are pinned to zero.
_STAIRCASE_ALLOWED = {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}


def _build_grassmann_pair(params: Mapping[str, object]) -> CatalogEntry:
    _check_keys(params, {"p", "q", "n", "k"})
    missing = [key for key in ("p", "q", "n", "k") if key not in params]
    if missing:
        raise ValueError(f"invalid parameters: missing {', '.join(missing)}")
    p = _require_int(params, "p")
    q = _require_int(params, "q")
    n = _require_int(params, "n")
    k = _require_int(params, "k")
    if not (1 <= p < q <= n):
        raise ValueError("invalid parameters: need 1 <= p < q <= n")
    if not (max(0, p + q - n - 1) <= k <= p):
        raise ValueError("invalid parameters: need max(0, p + q - n - 1) <= k <= p")

    n1, n2, n3, n4 = p - k, k, n + 1 + k - p - q, q - k
    size = n + 1
    group: list[int] = []
    for g, s in enumerate((n1, n2, n3, n4), start=1):
        group.extend([g] * s)

    e = ExactMatrix.unit
    last = size - 1
    gens = [e(size, i, i) - e(size, last, last) for i in range(last)]
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            if group[i] == group[j] or (group[i], group[j]) in _STAIRCASE_ALLOWED:
                gens.append(e(size, i, j))

    amb = special_linear(size)
    v = make_subalgebra(amb, gens)

    nu = n1 * n2 + n1 * n3 + n1 * n4 + n2 * n4 + n3 * n4
    d = 2 * n2 * n3
    expected = ExpectedInvariants(
        n_reductive=True,
        strict_hnr=True,
        hnr=True,
        cr_type=(nu, d),
        witt=(p + q - 2 * k) if d > 0 else None,
        f0_dim=d,
        notes=(
            f"Staircase pattern with group sizes {(n1, n2, n3, n4)} inside "
            f"the traceless {size}x{size} matrices.  The nilpotent part is "
            "the nilpotent radical of the stabilizer of the coarse two-step "
            "flag, so both horocyclic verdicts hold.  Every scalar Levi form "
            "of a nonzero covector has the same Witt index."
        ),
        # Expected values derived from the block sizes:
        #   cr_dim  = n1*n2 + n1*n3 + n1*n4 + n2*n4 + n3*n4
        #   cr_codim = 2*n2*n3  (also the dimension of the Hermitian fiber
        #   factor); the Witt bound p + q - 2k applies only when the
        #   characteristic space is nonzero.
    )
    return CatalogEntry(
        "grassmann_pair", amb, v, expected, params={"p": p, "q": q, "n": n, "k": k}
    )


_DEFAULT_TWIST = (
    (1, 0),
    (1, 0),
    (0, 2),
)


def _build_so_n_symmetric(params: Mapping[str, object]) -> CatalogEntry:
    _check_keys(params, {"n", "s"})
    n = _require_int(params, "n") if "n" in params else 3
    if n < 2:
        raise ValueError("invalid parameters: need n >= 2")
    raw = params.get("s", list(_DEFAULT_TWIST) if n == 3 else None)
    if raw is None:
        # No default twist for other sizes: pad the generic choice.
        raw = [(1, 0)] * (n - 1) + [(0, 2)]
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ValueError(f"invalid parameters: s must be a list of n = {n} scalars")
    try:
        scalars = [parse_gaussian(item) for item in raw]
    except ValueError as exc:
        raise ValueError(f"invalid parameters: s: {exc}") from exc
    if any(s == QI(0) for s in scalars):
        raise ValueError("invalid parameters: the scalars s must be nonzero")
    norms = {s.re * s.re + s.im * s.im for s in scalars}
    if len(norms) == 1:
        # All twist scalars have equal modulus, which makes the algebra
        # stable under the compact-form involution; the entry exists to
        # exhibit the opposite behavior.
        raise ValueError(
            "invalid parameters: the scalars s must not all have the same modulus"
        )

    amb = special_linear(n)
    e = ExactMatrix.unit
    gens = [
        e(n, i, j) + e(n, j, i, -(scalars[i] / scalars[j]))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    v = make_subalgebra(amb, gens)
    expected = ExpectedInvariants(
        n_reductive=False,
        notes=(
            "Orthogonal algebra of a twisted symmetric bilinear form whose "
            "diagonal scalars have unequal moduli.  The intersection with "
            "its conjugate is too small to complement the nilpotent part, "
            "so the reductive-plus-nilpotent splitting fails."
        ),
    )
    serialized = [[str(s.re), str(s.im)] for s in scalars]
    return CatalogEntry(
        "so_n_symmetric", amb, v, expected, params={"n": n, "s": serialized}
    )


def _build_upper_triangular_horocycle(params: Mapping[str, object]) -> CatalogEntry:
    _check_keys(params, {"n"})
    n = _require_int(params, "n") if "n" in params else 3
    if n < 2:
        raise ValueError("invalid parameters: need n >= 2")
    amb = special_linear(n)
    gens = [ExactMatrix.unit(n, i, j) for i in range(n) for j in range(i + 1, n)]
    v = make_subalgebra(amb, gens)
    nu = n * (n - 1) // 2
    expected = ExpectedInvariants(
        n_reductive=True,
        strict_hnr=True,
        hnr=True,
        cr_type=(nu, n - 1),
        witt=0,
        f0_dim=n - 1,
        notes=(
            "Strictly upper-triangular matrices: purely nilpotent with "
            "trivial reductive part.  The normalizer is the full "
            "upper-triangular algebra, so both horocyclic verdicts hold; "
            "diagonal covectors realize semidefinite scalar Levi forms, "
            "giving Witt bound zero."
        ),
    )
    return CatalogEntry(
        "upper_triangular_horocycle", amb, v, expected, params={"n": n}
    )


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


_BUILDERS = {
    "su22_f12": _build_su22_f12,
    "su23_f13": _build_su23_f13,
    "su23_f12": _build_su23_f12,
    "grassmann_pair": _build_grassmann_pair,
    "so_n_symmetric": _build_so_n_symmetric,
    "upper_triangular_horocycle": _build_upper_triangular_horocycle,
}


# Parameters of the one parametrized entry that the acceptance checks and
# ``crmostow verify`` exercise; pass ``REFERENCE_PARAMS.get(name)`` to
# ``build``.
REFERENCE_PARAMS: dict[str, dict[str, int]] = {
    "grassmann_pair": {"p": 1, "q": 2, "n": 3, "k": 1},
}


def entry_names() -> tuple[str, ...]:
    """Names of the built-in entries, in fixed registry order."""
    return tuple(_BUILDERS)


def build(name: str, params: Mapping[str, object] | None = None) -> CatalogEntry:
    """Construct the named entry.

    Raises ``ValueError("unknown entry")`` for names outside the registry and
    ``ValueError("invalid parameters: ...")``, naming the missing or
    unexpected keys or the failed constraint, when ``params`` does not
    describe an admissible instance of the entry's family.
    """
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError("unknown entry")
    return builder(dict(params) if params else {})


def grassmann_parameter_grid(max_size: int) -> tuple[dict[str, int], ...]:
    """All admissible ``grassmann_pair`` parameters with ambient size
    ``n + 1 <= max_size``, in lexicographic (n, p, q, k) order."""
    out: list[dict[str, int]] = []
    for n in range(2, max_size):
        for p in range(1, n):
            for q in range(p + 1, n + 1):
                for k in range(max(0, p + q - n - 1), p + 1):
                    out.append({"p": p, "q": q, "n": n, "k": k})
    return tuple(out)
