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

import functools
import sys
from array import array
from itertools import chain, product
from operator import countOf
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from ._kernels import pykern
from .axioms import check_morphism
from .errors import (BudgetExceededError, FieldMismatchError,
                     ScalarParseError, ShapeError)
from .fields import PrimeField, require_same_field
from .linalg import LinearMap, basis_vector
from .structures import (KINDS, SECTION_FORMS, SECTION_TYPES, Morphism,
                         read_nested)

RAW_CANDIDATE_BUDGET = 2 ** 32

# raw candidates one sweep may span, by the kernel that runs it. A budget
# counts raw candidates, an upper bound on what a walk visits: both
# kernels run the same pruned walk and visit far fewer, the compiled one
# at C speed. Twist-pinned dim-3 GF(2) spaces of 2^24 candidates (one
# product, its first three slots pinned to 0) took the Python kernel
# 0.0002-1.44 s with its packed shallow levels and 0.0002-1.61 s with the
# scalar walk alone, for hom-algebra, hom-leibniz and hom-prelie over six
# twists (zero, identity, a 3-cycle, a Jordan block, rank 2, rank 1; the
# slowest is hom-prelie with the 3-cycle, whose first identity is filed
# at depth 18, past the 16 levels the packed walk holds), min of 5
# alternated runs on a 2-core machine under Python 3.11.7
SWEEP_BUDGETS = {"compiled": RAW_CANDIDATE_BUDGET, "python": 2 ** 24}

# group_by_isomorphism walks GL_n(F_p) once per call: it packs each
# element's map on every section once and then makes one big-integer
# multiply per section, element and structure. Elements: 6 at n = 2 over
# GF(2), 20160 at n = 4 over GF(2); GF(5) at n = 3 (1.5e6) is refused.
# The elements of the last few groups are cached per (n, p)
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
    starts = (*offs, alpha_off)  # where each of them starts
    user_pins = []
    for section, array in user.items():
        if section not in names:
            raise ShapeError(f"unknown section {section!r} for kind {spec.kind}")
        shape = SECTION_FORMS[SECTION_TYPES[section]][2](n)
        leaves = []  # the pinned entries in row-major order, None if free
        read_nested(array, shape,
                    lambda v: leaves.append(v if v is None else gf.coerce(v)),
                    f"pinned section {section!r}")
        off = starts[names.index(section)]
        user_pins += [(off + pos, val)
                      for pos, val in enumerate(leaves) if val is not None]
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


@functools.lru_cache(maxsize=64)
def _sample_form(kind, n, p):
    """What every sample of a kind at dimension n over GF(p) shares: the
    field, the layout's length, the record, the product sections with
    the rows of the flat array where each starts, the row where the
    twist starts."""
    gf = PrimeField(p)
    total, offs, alpha_off = pykern.layout(kind, n)
    record, names, _ = KINDS[kind]
    return (gf, total, record, tuple(zip(names, [off // n for off in offs])),
            alpha_off // n)


def _trusted(form, field, entries):
    """The value of section type ``form`` holding ``entries``, nested
    tuples of its shape already: ``cls(field, entries)`` without the
    constructor's copy into tuples and its shape check."""
    cls, attr, _ = SECTION_FORMS[form]
    value = object.__new__(cls)
    object.__setattr__(value, "field", field)
    object.__setattr__(value, attr, entries)
    return value


def structure_from_flat(kind, flat, n, p, with_unit=False):
    """Materialize a kernel candidate as a checkable structure.
    ``ShapeError`` unless ``flat`` has the kind's layout length at
    dimension n, ``ScalarParseError`` unless each entry is an int in
    range(p)."""
    gf, total, record, products, alpha_row = _sample_form(kind, n, p)
    flat = tuple(flat)
    if len(flat) != total:
        raise ShapeError(f"a {kind} candidate at dimension {n} has {total} "
                         f"entries, not {len(flat)}")
    if countOf(map(type, flat), int) != total or min(flat, default=0) < 0 \
            or max(flat, default=0) >= p:
        raise ScalarParseError(f"candidate entries must be residues mod {p}")
    # the flat array in rows of n: row r + i n + j is mu(e_i, e_j) of the
    # product whose rows start at r, row alpha_row + i the twist's row i
    rows = tuple([flat[r:r + n] for r in range(0, total, n)])
    values = {name: _trusted("product", gf, tuple(
        [rows[r:r + n] for r in range(start, start + n * n, n)]))
        for name, start in products}
    values["alpha"] = _trusted("matrix", gf, rows[alpha_row:])
    if with_unit:
        values["unit"] = basis_vector(gf, n, 0)
    return record.from_sections(kind, values)


def enumerate_structures(spec: SearchSpec, kernel: str = "auto") -> SearchResult:
    """All structures over GF(prime) passing the kind's axiom system.

    Returns the exact count and the first ``spec.cap`` structures in
    lexicographic order of their flattened constants. ``ValueError`` on
    a negative ``spec.cap``.
    """
    _require_search_space(spec.dim, spec.prime, spec.kind)
    if spec.cap < 0:
        raise ValueError(f"cap must be non-negative, got {spec.cap}")
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
    one dict lookup per structure once the forms are known.

    A transport is linear in each section, so the loop runs over the
    group: once per call, each g in GL_n(F_p) is packed into one integer
    per section holding the dense map of the transport on that section's
    flat entries (Kronecker substitution; Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", J. Symbolic
    Comput. 44, 2009). Then g . s costs, per section, one big-integer
    multiply by the packed entries, one ``to_bytes`` and a reduction mod
    p of the strided result; a section of N entries makes about 2 N^3
    field products. |GL_n(F_p)| is 6 at n = 2 over GF(2), 48 over GF(3)
    and 168 at n = 3 over GF(2). The group's elements are cached per
    (n, p); ``BudgetExceededError`` when its order exceeds
    GROUP_ORDER_BUDGET, checked on every call.

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
    by_dim = {}
    for s in structures:
        by_dim.setdefault(s.dim, []).append(s)
    keys = {}  # id(structure) -> (dim, canonical form)
    for n, members in by_dim.items():
        _require_group_order(n, gf.p)
        forms = _canonical_forms(members, n, gf.p)
        keys.update((id(s), (n, form)) for s, form in zip(members, forms))
    orbits = {}
    for s in structures:
        orbits.setdefault(keys[id(s)], []).append(s)
    return list(orbits.values())


def _signature(s):
    """The kind and the section names that ``check_morphism`` compares."""
    return (s.kind, getattr(s, "unit", None) is not None,
            *(tuple(sorted(m)) for m in
              (s.products(), s.coproducts(), s.counits())))


def _require_group_order(n, p):
    """``BudgetExceededError`` when |GL_n(F_p)| exceeds GROUP_ORDER_BUDGET;
    stops multiplying as soon as it does."""
    order = 1
    for i in range(n):  # |GL_n(F_p)| = (p^n - 1)(p^n - p)...(p^n - p^(n-1))
        order *= p ** n - p ** i
        if order > GROUP_ORDER_BUDGET:
            raise BudgetExceededError(
                f"GL_{n}(F_{p}) has more than {GROUP_ORDER_BUDGET} elements")


@functools.lru_cache(maxsize=4)
def _general_linear_group(n, p):
    """Every invertible n x n matrix g over GF(p) with its inverse, in
    lexicographic order of g, as pairs of row tuples (equal rows are one
    object); callers check the group's order against the budget first.
    Row k runs over the vectors outside the span of rows 0 to k - 1, so
    no singular matrix is built."""
    vectors = {v: v for v in product(range(p), repeat=n)}
    out = []

    def extend(rows, span):
        for v in vectors:
            if v in span:
                continue
            g = rows + [v]
            if len(g) == n:
                h = _inverse(g, p)
                out.append((tuple(g), tuple(vectors[tuple(r)] for r in h)))
            else:
                extend(g, {tuple((x + a * y) % p for x, y in zip(s, v))
                           for s in span for a in range(p)})

    extend([], {(0,) * n})
    return tuple(out)


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


# factors of a transport: g, g^-1, g (x) g, g^-1 (x) g^-1, and None for
# the 1 x 1 identity
_G, _H, _GG, _HH = range(4)


def _sections(s):
    """The sections ``check_morphism`` compares, as their layout and their
    entries: a section is a (left, rows, cols, right) block of the flat
    entries, a rows x cols matrix M in row-major order, and the transport
    by g maps it to left . M . right for the factors of g those codes
    name. A product is the n x n^2 matrix sending e_i (x) e_j to
    mu(e_i, e_j), a coproduct the n^2 x n matrix of its values, the unit
    a column and a counit a row. So mu'(x, y) = g mu(g^-1 x, g^-1 y),
    alpha' = g alpha g^-1, unit' = g unit, Delta' = (g (x) g) Delta g^-1
    and eps' = eps g^-1."""
    n = s.dim
    layout, flat = [], []
    for _, t in sorted(s.products().items()):
        layout.append((_G, n, n * n, _HH))
        # row k lists mu(e_i, e_j)[k] over the n^2 rows t.c[i][j]
        flat += chain.from_iterable(zip(*chain.from_iterable(t.c)))
    layout.append((_G, n, n, _H))
    flat += chain.from_iterable(s.alpha.rows)
    if getattr(s, "unit", None) is not None:
        layout.append((_G, n, 1, None))
        flat += s.unit.coords
    for _, q in sorted(s.coproducts().items()):
        layout.append((_GG, n * n, n, _H))
        # row (i, j) lists Delta(e_k)[i][j] over the planes q.d[k]
        flat += chain.from_iterable(zip(*map(chain.from_iterable, q.d)))
    for _, eps in sorted(s.counits().items()):
        layout.append((None, 1, n, _H))
        flat += eps.rows[0]
    return layout, flat


# native formats of unsigned fields, narrowest first, and their widths in
# bytes; memoryview.cast and array read and write them alike
FORMATS = {f: array(f).itemsize for f in "BHIQ"}


def field_format(size, p):
    """The narrowest field format that holds a sum of ``size`` products of
    three residues mod p without carrying: the width of the packed fields
    of ``_canonical_forms``."""
    top = size * (p - 1) ** 3
    for f, width in FORMATS.items():
        if top < 1 << 8 * width:
            return f


def _canonical_forms(members, n, p):
    """The canonical form of each structure of dimension n (all of one
    signature): the least flat ``_sections`` array of g . s over
    GL_n(F_p), entries mod p.

    The transport maps each section on its own. Entry r of g . M is
    sum_c T[r][c] v[c] mod p for the section's flat entries v, reduced,
    and its dense map T, entries below p^2. With v packed as
    sum_c v[c] B^c and T as sum T[r][c] B^(2Nr + N - 1 - c) for
    N = len(v) and a field base B = 2^(8 * width), field 2Nr + N - 1 of
    their product holds that sum: every field sums at most N products
    below p^3, so none carries into the next: ``field_format``
    picks the width, and under GROUP_ORDER_BUDGET a section has one entry
    when p > 13, so 8 bytes always do. A form is kept as a tuple of
    per-section parts, which compares like their concatenation."""
    sections = [_sections(s) for s in members]
    layout = sections[0][0]
    flats = [[x % p for x in flat] for _, flat in sections]
    fmt = field_format(max(rows * cols for _, rows, cols, _ in layout), p)
    width, order = FORMATS[fmt], sys.byteorder
    if fmt == "B":
        # bytes compare like the tuples of their values, and one
        # translate reduces every field
        part = bytes
        residues = bytes(x % p for x in range(256))

        def read(raw, size):
            return raw[size - 1::2 * size].translate(residues)
    else:
        part = tuple
        mod = p.__rmod__

        def read(raw, size):
            fields = memoryview(raw).cast(fmt)
            return tuple(map(mod, fields[size - 1::2 * size]))
    packed = []  # per section: (packed entries of each member, N, bytes)
    best = [()] * len(flats)
    off = 0
    for _, rows, cols, _ in layout:
        size = rows * cols
        cuts = [v[off:off + size] for v in flats]
        packed.append(([int.from_bytes(array(fmt, v), order) for v in cuts],
                       size, 2 * size * size * width))
        best = [b + (part(v),) for b, v in zip(best, cuts)]  # g = 1
        off += size
    for g, h in _general_linear_group(n, p):
        maps = _packed_maps(layout, g, h, p, fmt)
        best = list(map(min, best, zip(*[
            [read((v * t).to_bytes(nbytes, order), size) for v in entries]
            for t, (entries, size, nbytes) in zip(maps, packed)])))
    return [tuple(chain.from_iterable(b)) for b in best]


def _packed_maps(layout, g, h, p, fmt):
    """The dense map T of the transport by g on each section, packed as
    ``_canonical_forms`` reads it.

    A section left . M . right (R x C, S = RC entries) has the map
    left (x) right^T on row-major M: T[rC + c][iC + j] is
    left[r][i] right[j][c], at field (rC + c) 2S + S - 1 - iC - j. That
    field is the sum of a place for left[r][i], rC 2S + (R - 1 - i) C,
    and one for right[j][c], c 2S + C - 1 - j, and no two pairs of
    places share a sum (Kronecker substitution). So the larger factor is
    packed once at its places, and T is the sum of that packing times
    each entry a != 0 of the smaller one, shifted by the entry's place:
    each field holds one product of two residues."""
    factors = {_G: g, _H: h, None: ((1,),)}
    for code, m in ((_GG, g), (_HH, h)):
        if any(code in (left, right) for left, _, _, right in layout):
            factors[code] = [[x * y % p for x in ra for y in rb]
                             for ra in m for rb in m]
    bits, order = 8 * FORMATS[fmt], sys.byteorder
    out = []
    for left, rows, cols, right in layout:
        size = rows * cols
        stride = 2 * size
        if rows <= cols:  # pack the right factor, a reversed column each
            fields = array(fmt, [0]) * (cols * stride)
            for c, col in enumerate(zip(*factors[right])):
                fields[c * stride:c * stride + cols] = array(
                    fmt, reversed(col))
            places = [(a, r * cols * stride + (rows - 1 - i) * cols)
                      for r, row in enumerate(factors[left])
                      for i, a in enumerate(row) if a]
        else:  # pack the left factor, a reversed row at stride C each
            fields = array(fmt, [0]) * (size * stride)
            for r, row in enumerate(factors[left]):
                at = r * cols * stride
                fields[at:at + size:cols] = array(fmt, reversed(row))
            places = [(a, c * stride + cols - 1 - j)
                      for j, row in enumerate(factors[right])
                      for c, a in enumerate(row) if a]
        block = int.from_bytes(fields, order)
        out.append(sum(a * block << bits * place for a, place in places))
    return out


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
