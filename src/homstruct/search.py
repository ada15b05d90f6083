"""Exhaustive enumeration of small structures over prime fields, and
brute-force morphism search between small structures.

Enumeration walks every assignment of the free structure constants in
lexicographic order (first flat slot most significant) and keeps those
satisfying the kind's axiom system. The hot loop runs in the compiled
kernel when available and in the pure-Python twin otherwise; streams are
identical either way, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernels
from ._kernels import pykern
from .axioms import check_morphism
from .errors import BudgetExceededError, FieldMismatchError, ShapeError
from .fields import PrimeField, require_same_field
from .linalg import LinearMap, ProductTensor, basis_vector
from .structures import KINDS, Morphism

RAW_CANDIDATE_BUDGET = 2 ** 32

SEARCH_KINDS = tuple(pykern.KINDS)


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: an axiom system, a dimension and a prime, with
    optional pinned structure constants and a unit requirement."""

    kind: str
    dim: int
    prime: int
    fixed: Optional[dict] = None  # section name -> nested array with None holes
    require_unit: bool = False
    cap: int = 256  # structures to materialize; the count is always exact


@dataclass(frozen=True)
class SearchResult:
    count: int
    structures: tuple
    kernel: str
    spec: SearchSpec


@dataclass(frozen=True)
class AuditResult:
    """Outcome of sweeping one axiom system against another."""

    count: int          # candidates passing kind_a
    violations: int     # of those, how many fail kind_b
    example: object     # first violating structure, or None
    kernel: str


def _flat_template(spec: SearchSpec):
    """Merge unit prefill and user-pinned entries into the flat pattern;
    ``BudgetExceededError`` when its free slots span too many candidates."""
    n, p = spec.dim, spec.prime
    gf = PrimeField(p)
    total, offs, alpha_off = pykern.layout(spec.kind, n)
    user = spec.fixed or {}
    if not isinstance(user, dict):
        raise ShapeError("pinned entries must map section names to arrays")
    names = KINDS[spec.kind][1]  # the product sections, then alpha
    user_pins = []
    for section, array in user.items():
        if section not in names:
            raise ShapeError(f"unknown section {section!r} for kind {spec.kind}")
        if section == "alpha":
            off, depth = alpha_off, 2
        else:
            off, depth = offs[names.index(section)], 3
        error = (f"pinned section {section!r} must be a "
                 f"{'x'.join([str(n)] * depth)} nested list")
        user_pins += [(off + pos, gf.coerce(val)) for pos, val in
                      enumerate(_row_major(array, n, depth, error))
                      if val is not None]
    unit_pins = 2 * len(offs) * n * n if spec.require_unit else 0
    # each pin fixes at most one slot: refuse a space over the budget
    # before building a template of ``total`` slots
    _budget_or_raise(total - len(user_pins) - unit_pins, p)
    fixed = [-1] * total

    def pin(pos, value):
        if fixed[pos] >= 0 and fixed[pos] != value:
            raise ShapeError("conflicting pinned values for one slot")
        fixed[pos] = value

    if spec.require_unit:
        for off in offs:
            for j in range(n):
                for k in range(n):
                    pin(off + (0 * n + j) * n + k, 1 if j == k else 0)
                    pin(off + (j * n + 0) * n + k, 1 if j == k else 0)
    for pos, value in user_pins:
        pin(pos, value)
    _budget_or_raise(fixed.count(-1), p)
    return fixed, offs, alpha_off


def _row_major(array, n, depth, error):
    """The entries of a nested list of shape n x ... x n (``depth`` levels)
    in row-major order; raises ``ShapeError(error)`` on any other shape."""
    if depth == 0:
        if isinstance(array, (list, tuple)):
            raise ShapeError(error)
        return [array]
    if not isinstance(array, (list, tuple)) or len(array) != n:
        raise ShapeError(error)
    return [x for sub in array for x in _row_major(sub, n, depth - 1, error)]


def _require_search_space(dim, prime, *kinds):
    PrimeField(prime)  # validates primality
    for kind in kinds:
        if kind not in SEARCH_KINDS:
            raise ValueError(f"unknown search kind {kind!r}; "
                             f"choose from {SEARCH_KINDS}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")


def _budget_or_raise(free, p):
    """Raise unless p ** free candidates fit the budget; past
    ``RAW_CANDIDATE_BUDGET.bit_length()`` free slots they cannot, and
    the power is not built."""
    if (free > RAW_CANDIDATE_BUDGET.bit_length()
            or p ** free > RAW_CANDIDATE_BUDGET):
        raise BudgetExceededError(
            f"{p}^{free} raw candidates exceed the budget of "
            f"{RAW_CANDIDATE_BUDGET}")


def structure_from_flat(kind, flat, n, p, with_unit=False):
    """Materialize a kernel candidate as a checkable structure."""
    gf = PrimeField(p)
    _, offs, alpha_off = pykern.layout(kind, n)

    def tensor(off):
        return ProductTensor(gf, tuple(
            tuple(tuple(flat[off + (i * n + j) * n + k] for k in range(n))
                  for j in range(n))
            for i in range(n)))

    record, names, _ = KINDS[kind]
    values = dict(zip(names, [tensor(off) for off in offs]))
    values["alpha"] = LinearMap(gf, tuple(
        tuple(flat[alpha_off + i * n + j] for j in range(n))
        for i in range(n)))
    if with_unit:
        values["unit"] = basis_vector(gf, n, 0)
    return record.from_sections(kind, values)


def enumerate_structures(spec: SearchSpec, kernel: str = "auto") -> SearchResult:
    """All structures over GF(prime) passing the kind's axiom system.

    Returns the exact count and the first ``spec.cap`` structures in
    lexicographic order of their flattened constants.
    """
    _require_search_space(spec.dim, spec.prime, spec.kind)
    fixed, _, _ = _flat_template(spec)
    kern = _kernels.kernel_for(kernel, spec.dim, spec.prime)
    count, samples = kern.sweep(spec.kind, spec.dim, spec.prime, fixed, spec.cap)
    structures = tuple(
        structure_from_flat(spec.kind, s, spec.dim, spec.prime,
                            spec.require_unit)
        for s in samples)
    return SearchResult(count, structures, kern.NAME, spec)


def audit_inclusion(kind_a: str, kind_b: str, dim: int, prime: int,
                    kernel: str = "auto") -> AuditResult:
    """Sweep the common candidate space of two axiom systems, counting
    candidates that pass ``kind_a`` and, among them, those failing
    ``kind_b``; materializes the first violation."""
    _require_search_space(dim, prime, kind_a, kind_b)
    if pykern.KINDS[kind_a] != pykern.KINDS[kind_b]:
        raise ValueError("audit kinds must share one candidate layout")
    total, _, _ = pykern.layout(kind_a, dim)
    _budget_or_raise(total, prime)
    fixed = [-1] * total
    kern = _kernels.kernel_for(kernel, dim, prime)
    count, violations, example = kern.audit(kind_a, kind_b, dim, prime, fixed)
    structure = None
    if example is not None:
        structure = structure_from_flat(kind_a, example, dim, prime)
    return AuditResult(count, violations, structure, kern.NAME)


def group_by_isomorphism(structures) -> list:
    """Optional post-pass: group enumerated structures into orbits under
    invertible intertwiners (no quotient is taken by default).

    Quadratic in the number of structures and exponential in the matrix
    slots, so only sensible at desk scale; the budget guard still applies
    through the morphism search.
    """
    structures = list(structures)
    orbits = []
    for s in structures:
        placed = False
        for orbit in orbits:
            if _isomorphic(orbit[0], s):
                orbit.append(s)
                placed = True
                break
        if not placed:
            orbits.append([s])
    return orbits


def _isomorphic(a, b) -> bool:
    if a.dim != b.dim:
        return False
    gf = require_same_field(a.field, b.field)
    for m in find_morphisms(a, b):
        if _invertible(m.f, gf):
            return True
    return False


def _invertible(f: LinearMap, gf: PrimeField) -> bool:
    n = f.source_dim
    rows = [list(r) for r in f.rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % gf.p), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = gf.inv(rows[col][col])
        for r in range(n):
            if r != col and rows[r][col]:
                factor = gf.mul(rows[r][col], inv)
                rows[r] = [gf.sub(x, gf.mul(factor, y))
                           for x, y in zip(rows[r], rows[col])]
    return True


def find_morphisms(src, dst, cap: Optional[int] = None) -> list:
    """All matrices over the shared prime field intertwining both
    structures, in lexicographic order; includes the zero map whenever it
    qualifies and the identity for equal structures."""
    gf = require_same_field(src.field, dst.field)
    if not isinstance(gf, PrimeField):
        raise FieldMismatchError("morphism search needs a prime field")
    if src.kind != dst.kind:
        raise ShapeError(f"kind mismatch: {src.kind} vs {dst.kind}")
    n, m = src.dim, dst.dim
    p = gf.p
    slots = n * m
    if p ** slots > RAW_CANDIDATE_BUDGET:
        raise BudgetExceededError(
            f"{p ** slots} candidate matrices exceed the budget")
    out = []
    digits = [0] * slots
    while True:
        f = LinearMap(gf, tuple(
            tuple(digits[i * n + j] for j in range(n)) for i in range(m)))
        if check_morphism(f, src, dst, witness_cap=1).passed:
            out.append(Morphism(f, src, dst))
            if cap is not None and len(out) >= cap:
                return out
        pos = slots - 1
        while pos >= 0:
            digits[pos] += 1
            if digits[pos] < p:
                break
            digits[pos] = 0
            pos -= 1
        if pos < 0:
            return out
