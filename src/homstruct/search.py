"""Exhaustive enumeration of small structures over prime fields,
brute-force morphism search between small structures, and their
isomorphism classes by canonical form.

Enumeration yields the assignments of the free structure constants that
satisfy the kind's axiom system, in lexicographic order (first flat slot
most significant). Both kernels, the compiled one when built and the
pure-Python one, walk that order depth-first over pykern's one identity
table and drop a whole subtree as soon as an identity whose slots are
all set fails. Streams are identical either way, so runs are
reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Optional

from . import _kernels
from ._kernels import pykern
from .axioms import check_morphism
from .errors import BudgetExceededError, FieldMismatchError, ShapeError
from .fields import PrimeField, require_same_field
from .linalg import LinearMap, ProductTensor, basis_vector, kron
from .structures import KINDS, Morphism

RAW_CANDIDATE_BUDGET = 2 ** 32

# raw candidates one sweep may span, by the kernel that runs it. A budget
# counts raw candidates, an upper bound on what a walk visits: both
# kernels run the same pruned walk and visit far fewer, the compiled one
# at C speed (twist-pinned dim-3 GF(2) spaces of 2^24 candidates, one
# product and three of its slots pinned, took the Python kernel 0.002-13 s
# over six twists on a 2-core machine under Python 3.11.7)
SWEEP_BUDGETS = {"compiled": RAW_CANDIDATE_BUDGET, "python": 2 ** 24}

# group_by_isomorphism holds GL_n(F_p) for the call and makes one
# transport per element and structure: 6 at n = 2 over GF(2), 20160 at
# n = 4 over GF(2); GF(5) at n = 3 (1.5e6) is refused
GROUP_ORDER_BUDGET = 2 ** 16

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


def _flat_template(spec: SearchSpec, kernel_name: str):
    """Merge unit prefill and user-pinned entries into the flat pattern;
    ``BudgetExceededError`` when its free slots span more candidates than
    the kernel ``kernel_name`` may sweep."""
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
    _budget_or_raise(total - len(user_pins) - unit_pins, p, kernel_name)
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
    _budget_or_raise(fixed.count(-1), p, kernel_name)
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


def _budget_or_raise(free, p, kernel_name):
    """Raise unless p ** free candidates fit the kernel's sweep budget;
    past the budget's bit length in free slots they cannot, and the power
    is not built."""
    budget = SWEEP_BUDGETS[kernel_name]
    if free > budget.bit_length() or p ** free > budget:
        raise BudgetExceededError(
            f"{p}^{free} raw candidates exceed the {kernel_name} kernel's "
            f"budget of {budget}")


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
    kern = _kernels.kernel_for(kernel, spec.prime)
    fixed, _, _ = _flat_template(spec, kern.NAME)
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
    kern = _kernels.kernel_for(kernel, prime)
    total, _, _ = pykern.layout(kind_a, dim)
    _budget_or_raise(total, prime, kern.NAME)
    fixed = [-1] * total
    count, violations, example = kern.audit(kind_a, kind_b, dim, prime, fixed)
    structure = None
    if example is not None:
        structure = structure_from_flat(kind_a, example, dim, prime)
    return AuditResult(count, violations, structure, kern.NAME)


def group_by_isomorphism(structures) -> list:
    """Group structures into isomorphism classes: the orbits, in order of
    first appearance, each holding its members in input order.

    Two structures are isomorphic when an invertible map intertwines every
    section ``check_morphism`` compares: the products, the twist, the unit
    and the coproducts and counits. Each structure is keyed by its
    dimension and its canonical form, the lexicographically least flat
    array over its transports g . s for g in GL_n(F_p) (McKay, "Isomorph-
    free exhaustive generation", J. Algorithms 26, 1998). Two keys are
    equal exactly when an invertible intertwiner exists, so grouping is
    one dict lookup per structure after |GL_n(F_p)| transports: 6 at
    n = 2 over GF(2), 48 over GF(3), 168 at n = 3 over GF(2).
    ``BudgetExceededError`` when |GL_n(F_p)| exceeds GROUP_ORDER_BUDGET.

    All members must share one kind and carry the same sections
    (``ShapeError`` otherwise): a unit, say, is compared only when both
    sides carry one, so on mixed inputs "isomorphic" is not transitive.
    They must share one prime field (``FieldMismatchError``). Structures
    of different dimensions land in different orbits.
    """
    structures = list(structures)
    if not structures:
        return []
    gf = require_same_field(*(s.field for s in structures))
    if not isinstance(gf, PrimeField):
        raise FieldMismatchError("isomorphism classes need a prime field")
    if len({_signature(s) for s in structures}) > 1:
        raise ShapeError("isomorphism classes need structures of one kind "
                         "carrying the same sections")
    p = gf.p
    groups = {}  # dim -> GL_n(F_p), built once per call
    orbits = {}
    for s in structures:
        n = s.dim
        if n not in groups:
            groups[n] = _general_linear_group(n, gf)
        sections = _section_matrices(s)
        key = (n, min(_transport(sections, g, p) for g in groups[n]))
        orbits.setdefault(key, []).append(s)
    return list(orbits.values())


def _signature(s):
    """The kind and the section names that ``check_morphism`` compares."""
    return (s.kind, getattr(s, "unit", None) is not None,
            *(tuple(sorted(m)) for m in
              (s.products(), s.coproducts(), s.counits())))


def _general_linear_group(n, gf):
    """Every invertible n x n matrix g over GF(p), as (g, g^-1, g(x)g,
    g^-1(x)g^-1), the factors ``_transport`` multiplies by;
    ``BudgetExceededError`` when there are more than GROUP_ORDER_BUDGET."""
    p = gf.p
    order = 1
    for i in range(n):  # |GL_n(F_p)| = (p^n - 1)(p^n - p)...(p^n - p^(n-1))
        order *= p ** n - p ** i
        if order > GROUP_ORDER_BUDGET:
            raise BudgetExceededError(
                f"GL_{n}(F_{p}) has more than {GROUP_ORDER_BUDGET} elements")
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        g = [flat[i * n:(i + 1) * n] for i in range(n)]
        h = _inverse(g, p)
        if h is not None:
            gm, hm = LinearMap(gf, g), LinearMap(gf, h)
            out.append((g, h, kron(gm, gm).rows, kron(hm, hm).rows))
    return out


def _inverse(rows, p):
    """The inverse of a square matrix over GF(p) by Gauss-Jordan
    elimination, or None when it is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = pow(aug[col][col], -1, p)
        aug[col] = [x * scale % p for x in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r != col and factor % p:
                aug[r] = [(x - factor * y) % p
                          for x, y in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


def _matmul(a, b, p):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in a]


# factor positions in a group element (g, g^-1, g(x)g, g^-1(x)g^-1)
_G, _H, _GG, _HH = range(4)


def _section_matrices(s):
    """The sections ``check_morphism`` compares, as (left, matrix, right):
    the transport by g is group[left] . matrix . group[right] (a None
    factor is skipped). A product is the n x n^2 matrix sending
    e_i (x) e_j to mu(e_i, e_j), a coproduct the n^2 x n matrix of its
    values, the unit a column and a counit a row."""
    n = s.dim
    out = []
    for _, t in sorted(s.products().items()):
        c = t.c
        out.append((_G, [[c[i][j][k] for i in range(n) for j in range(n)]
                         for k in range(n)], _HH))
    out.append((_G, s.alpha.rows, _H))
    if getattr(s, "unit", None) is not None:
        out.append((_G, [[x] for x in s.unit.coords], None))
    for _, q in sorted(s.coproducts().items()):
        d = q.d
        out.append((_GG, [[d[k][i][j] for k in range(n)]
                          for i in range(n) for j in range(n)], _H))
    for _, eps in sorted(s.counits().items()):
        out.append((None, eps.rows, _H))
    return out


def _transport(sections, g, p):
    """The flat array of g . s: mu'(x, y) = g mu(g^-1 x, g^-1 y),
    alpha' = g alpha g^-1, unit' = g unit, Delta' = (g (x) g) Delta g^-1
    and eps' = eps g^-1, entries mod p."""
    flat = []
    for left, m, right in sections:
        if right is not None:
            m = _matmul(m, g[right], p)
        if left is not None:
            m = _matmul(g[left], m, p)
        for row in m:
            flat.extend(row)
    return tuple(flat)


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
