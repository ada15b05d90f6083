"""Exact vectors, linear maps, structure-constant tensors and the
multilinear calculus used to state every axiom.

Conventions fixed here and shared by the whole package:

* ``LinearMap`` stores an m-by-n matrix whose column j is the image of
  the j-th source basis vector.
* ``ProductTensor`` stores c[i][j][k] with mu(e_i, e_j) = sum_k c[i][j][k] e_k.
* ``CoproductTensor`` stores d[k][i][j] with delta(e_k) =
  sum_{i,j} d[k][i][j] e_i (x) e_j (output index first).
* The basis of a tensor square V (x) W is ordered lexicographically with
  the left factor major: e_i (x) f_j comes at position i*dim(W) + j.

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.

Sparse forms. A ``ProductTensor`` keeps its planes of multiplication on
the left and on the right, and a ``CoproductTensor`` its planes, as
their nonzero entries (``left_planes``, ``right_planes``,
``sparse_planes``), and the primitives that evaluate a tensor read it
through them. Each is computed from the value on first use and kept on
the value, so it lives as long as the value does. A ``LinearMap`` keeps
whether it is the identity the same way.

Scalar loops use the native ``+`` and ``*`` of the field's scalars
(ints, and over QQ a ``Fraction`` for a non-integral value), skip zero
factors, and reduce each accumulated row, or flat square or cube, by one
call of the field's ``reduce_row``. Over GF(p), this reduces mod p only
at the end, which gives the same residue because Python ints do not
overflow. Over QQ, it turns an integral ``Fraction`` back into an
``int``, so every output entry is in the field's canonical form and
integral data stays in native int arithmetic.

Batches. A :class:`Batch` holds one value at every index tuple over some
axes, so that an identity written once over these primitives can be
evaluated at many arguments in one call. ``axioms.run_suite`` gives each
argument position its own axis, over the basis vectors, so one call
covers every basis tuple; ``oracle.oracle_crosscheck`` puts every
argument on one shared axis, so one call covers a block of random
samples, or every witness of one axiom:

* ``apply_bilinear``, ``apply_coproduct``, ``bullet``, ``outer``,
  ``multiply_leg``, ``map_on_leg3``, ``coproduct_on_left``,
  ``coproduct_on_right`` and ``LinearMap.apply`` take batches as well as
  plain values; a batch also has the methods ``add``, ``sub``,
  ``map_left``, ``map_right``, ``contract_left`` and ``contract_right``.
  Each has one body, written over batches: a plain ``Vector``,
  ``Tensor2`` or ``Tensor3`` operand is lifted on the way in to a batch
  over no axes whose one entry is its raw value, and a result over no
  axes is lowered on the way out to the plain value of that entry, so
  plain operands give a plain value, never a batch. The plain values'
  methods are the batch methods on the lifted value.
* A result is a batch over the union of its operands' axes. An axis two
  operands share is joined, not multiplied out: ``apply_bilinear(p, x,
  x)`` has one entry per entry of ``x``. Entries are keyed by axis,
  whatever order the operands come in. A plain operand holds at every
  tuple.
* ``apply_bilinear`` on operands with many entries builds the operator of
  multiplication by each entry of the smaller batch once, and applies it
  once to each distinct entry of the other; when the join pairs their
  entries one to one, as on a shared axis or for two plain operands, it
  expands each pair directly. ``multiply_leg`` builds the operator once
  per entry of its vector, and ``bullet`` builds one per nonzero column
  of each entry of its left operand.
* Entries are stored raw (coordinate tuples, rows, planes) and every
  primitive reduces each output row once, so a batch entry equals the
  plain value at its tuple exactly. An identity map checks its operand's
  shape and field in ``apply``, ``map_left``, ``map_right`` and
  ``map_on_leg3``, then returns a batch operand itself, whose entries are
  reduced already, and a plain operand with each scalar reduced, since a
  value built by hand may hold a scalar outside the field's canonical
  form (6 over GF(5), an integral ``Fraction``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, sub

from .errors import ShapeError
from .fields import require_same_field


class _Entrywise:
    """``add`` and ``sub`` of two values, or batches, of one shape."""

    __slots__ = ()

    def add(self, other):
        return _entrywise(self, other, add)

    def sub(self, other):
        return _entrywise(self, other, sub)


@dataclass(frozen=True)
class Vector(_Entrywise):
    field: object
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self):
        return len(self.coords)

    def scale(self, c) -> "Vector":
        f = self.field
        return Vector(f, f.reduce_row([c * a for a in self.coords]))


def zero_vector(field, n: int) -> Vector:
    return Vector(field, (field.zero,) * n)


def basis_vector(field, n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise ShapeError(f"basis index {i} out of range for dimension {n}")
    return Vector(field, tuple(field.one if j == i else field.zero for j in range(n)))


@dataclass(frozen=True)
class LinearMap:
    """An m-by-n matrix over one field; column j is the image of e_j."""

    field: object
    rows: tuple  # m rows, each a tuple of n scalars

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ShapeError("ragged matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def target_dim(self):
        return len(self.rows)

    @property
    def source_dim(self):
        return len(self.rows[0]) if self.rows else 0

    def apply(self, v: Vector) -> Vector:
        """The map at v, summing its sparse columns over v's nonzero
        coordinates."""
        v = _lift(v)
        if v.shape != (self.source_dim,):
            raise ShapeError(f"map expects dimension {self.source_dim}, got {v.shape}")
        f = require_same_field(self.field, v.field)
        if self._identity:
            return _identity_image(v, f)
        m = self.target_dim
        cols = [_nonzeros(col) for col in zip(*self.rows)]
        zero, red = f.zero, f.reduce_row
        out = []
        for x in v.entries:
            acc = [zero] * m
            for xj, col in zip(x, cols):
                if xj:
                    for i, a in col:
                        acc[i] += xj * a
            out.append(red(acc))
        return v._with(f, (m,), out)

    def column(self, j: int) -> Vector:
        return Vector(self.field, tuple(row[j] for row in self.rows))

    def is_identity(self) -> bool:
        return self._identity

    @cached_property
    def _identity(self) -> bool:
        """Whether this is the identity map, computed once per map:
        ``apply`` and the leg maps read it to skip their sums."""
        n, m = self.source_dim, self.target_dim
        if n != m:
            return False
        one, zero = self.field.one, self.field.zero
        return all(self.rows[i][j] == (one if i == j else zero)
                   for i in range(n) for j in range(n))


def identity_map(field, n: int) -> LinearMap:
    one, zero = field.one, field.zero
    return LinearMap(field, tuple(tuple(one if i == j else zero for j in range(n))
                                  for i in range(n)))


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """Matrix product f.g, i.e. the map x -> f(g(x))."""
    if f.source_dim != g.target_dim:
        raise ShapeError(f"cannot compose {f.target_dim}x{f.source_dim} "
                         f"with {g.target_dim}x{g.source_dim}")
    k = require_same_field(f.field, g.field)
    dot = k.dot
    cols = list(zip(*g.rows))
    return LinearMap(k, tuple(tuple([dot(row, col) for col in cols])
                              for row in f.rows))


def kron(f: LinearMap, g: LinearMap) -> LinearMap:
    """Kronecker product acting on the lexicographically ordered tensor basis.

    Each entry is a single product with nothing to accumulate, so the
    field's own ``mul`` already reduces once per entry."""
    k = require_same_field(f.field, g.field)
    mul = k.mul
    return LinearMap(k, tuple(tuple([mul(a, b) for a in frow for b in grow])
                              for frow in f.rows for grow in g.rows))


@dataclass(frozen=True)
class ProductTensor:
    """Structure constants of a bilinear product on an n-dimensional space."""

    field: object
    c: tuple  # c[i][j][k]

    def __post_init__(self):
        c = tuple(tuple(tuple(k) for k in j) for j in self.c)
        n = len(c)
        if any(len(j) != n for j in c) or any(len(k) != n for j in c for k in j):
            raise ShapeError("product tensor must be n x n x n")
        object.__setattr__(self, "c", c)

    @property
    def dim(self):
        return len(self.c)

    @cached_property
    def left_planes(self):
        """``left_planes[i][j]``: the nonzero ``(k, value)`` pairs of
        mu(e_i, e_j), so ``sum_i u_i left_planes[i]`` is multiplication by
        u on the left, as a map. Computed once per tensor."""
        return tuple(tuple(_nonzeros(row) for row in plane)
                     for plane in self.c)

    @cached_property
    def right_planes(self):
        """``right_planes[j][i]``: the nonzero ``(k, value)`` pairs of
        mu(e_i, e_j), so ``sum_j v_j right_planes[j]`` is multiplication by
        v on the right, as a map. Computed once per tensor."""
        left = self.left_planes
        return tuple(tuple(plane[j] for plane in left)
                     for j in range(len(left)))


@dataclass(frozen=True)
class CoproductTensor:
    """Structure constants of a comultiplication, output index first."""

    field: object
    d: tuple  # d[k][i][j]

    def __post_init__(self):
        d = tuple(tuple(tuple(j) for j in i) for i in self.d)
        n = len(d)
        if any(len(i) != n for i in d) or any(len(j) != n for i in d for j in i):
            raise ShapeError("coproduct tensor must be n x n x n")
        object.__setattr__(self, "d", d)

    @property
    def dim(self):
        return len(self.d)

    @cached_property
    def sparse_planes(self):
        """``sparse_planes[k]``: the nonzero entries of delta(e_k) as
        ``(i * n + j, value)`` pairs, indexed by the position of
        e_i (x) e_j in the tensor square's basis. Computed once per
        tensor."""
        n = len(self.d)
        return tuple([(i * n + j, v) for i, row in enumerate(plane)
                      for j, v in enumerate(row) if v] for plane in self.d)


@dataclass(frozen=True)
class Tensor2(_Entrywise):
    """An element of V (x) W as a dim(V) x dim(W) coefficient matrix."""

    field: object
    entries: tuple  # entries[i][j]

    def __post_init__(self):
        e = tuple(tuple(r) for r in self.entries)
        if e and any(len(r) != len(e[0]) for r in e):
            raise ShapeError("ragged tensor square")
        object.__setattr__(self, "entries", e)

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]) if self.entries else 0)

    def map_left(self, g: LinearMap) -> "Tensor2":
        """Apply g to the left tensor leg."""
        return _lift(self).map_left(g)

    def map_right(self, g: LinearMap) -> "Tensor2":
        """Apply g to the right tensor leg."""
        return _lift(self).map_right(g)

    def contract_left(self, functional: LinearMap) -> Vector:
        """Contract the left leg with a 1-by-n functional, leaving a vector."""
        return _lift(self).contract_left(functional)

    def contract_right(self, functional: LinearMap) -> Vector:
        return _lift(self).contract_right(functional)


@dataclass(frozen=True)
class Tensor3(_Entrywise):
    """An element of V (x) V (x) V as a cubical coefficient array."""

    field: object
    entries: tuple  # entries[i][j][k]

    def __post_init__(self):
        e = tuple(tuple(tuple(k) for k in j) for j in self.entries)
        object.__setattr__(self, "entries", e)
        _, m, k = self.shape
        if any(len(j) != m or any(len(r) != k for r in j) for j in e):
            raise ShapeError("ragged cube")

    @property
    def shape(self):
        e = self.entries
        return (len(e), len(e[0]) if e else 0,
                len(e[0][0]) if e and e[0] else 0)


# the plain class of a batch's entries, by the length of their shape
_KINDS = (None, Vector, Tensor2, Tensor3)


class Batch(_Entrywise):
    """One value at every index tuple over some axes.

    An axis is an index position: ``axes`` lists the ones the value
    depends on, in increasing order, and ``n`` is the number of entries
    along each. ``run_suite`` uses one axis per argument position, each
    over the n basis vectors; the oracle uses one axis, shared by every
    argument, over a block of n samples. ``entries`` holds one value per
    index tuple over ``axes``, in ``itertools.product`` order, stored raw:
    the coordinates of a ``Vector``, or the rows or planes of a
    ``Tensor2`` or ``Tensor3``. Every entry has ``shape``, whose length
    tells which of the three; the constructor raises ``ShapeError``
    unless each entry nests as ``shape`` and there are ``n ** len(axes)``.
    ``basis_batch``, the oracle's samples and every primitive build
    without these checks, and give only canonical scalars. A batch
    over no axes is a lifted plain value, whose one entry is that value's
    raw form as it was built, reduced or not.
    """

    __slots__ = ("field", "shape", "axes", "n", "entries")

    def __init__(self, field, shape, axes, n, entries):
        shape, axes = tuple(shape), tuple(axes)
        if (not 1 <= len(shape) <= 3 or list(axes) != sorted(set(axes))
                or len(entries) != n ** len(axes)
                or not _nests_as(entries, shape)):
            raise ShapeError(f"{len(entries)} entries do not make a batch of "
                             f"shape {shape} over axes {axes} of {n}")
        self.field, self.shape, self.axes, self.n = field, shape, axes, n
        self.entries = entries

    @property
    def kind(self):
        return _KINDS[len(self.shape)]

    def _with(self, field, shape, entries):
        return _lower(field, shape, self.axes, self.n, entries)

    def map_left(self, g: LinearMap) -> "Batch":
        """Apply g to the left leg of every entry."""
        n, m = _square_shape(self)
        f = _leg_map_field(n, self.field, g, "left")
        if g._identity:
            return _identity_image(self, f)
        dot, red, rows = _sparse_rows(f, g.rows)
        return self._with(f, (g.target_dim, m), [
            tuple(red([dot(grow, col) for col in cols]) for grow in rows)
            for cols in (list(zip(*e)) for e in self.entries)])

    def map_right(self, g: LinearMap) -> "Batch":
        """Apply g to the right leg of every entry."""
        n, m = _square_shape(self)
        f = _leg_map_field(m, self.field, g, "right")
        if g._identity:
            return _identity_image(self, f)
        dot, red, rows = _sparse_rows(f, g.rows)
        return self._with(f, (n, g.target_dim), [
            tuple(red([dot(grow, row) for grow in rows]) for row in e)
            for e in self.entries])

    def contract_left(self, functional: LinearMap) -> "Batch":
        n, m = _square_shape(self)
        f = _functional_field(n, self.field, functional, "left")
        dot, red, (row,) = _sparse_rows(f, functional.rows)
        return self._with(f, (m,), [red([dot(row, col) for col in zip(*e)])
                                    for e in self.entries])

    def contract_right(self, functional: LinearMap) -> "Batch":
        n, m = _square_shape(self)
        f = _functional_field(m, self.field, functional, "right")
        dot, red, (row,) = _sparse_rows(f, functional.rows)
        return self._with(f, (n,), [red([dot(row, erow) for erow in e])
                                    for e in self.entries])


def basis_batch(field, n: int, axis: int) -> Batch:
    """The n basis vectors along argument position ``axis``."""
    one, zero = field.one, field.zero
    return _batch(field, (n,), (axis,), n,
                  [tuple(one if j == i else zero for j in range(n))
                   for i in range(n)])


def mismatches(lhs, rhs, arity: int, n: int):
    """Yield ``(index tuple, lhs, rhs)`` at every index tuple over the
    axes ``0 .. arity - 1``, ``n`` entries along each, where the two sides
    differ, in ``itertools.product`` order, with both sides as plain
    values. Either side may be a batch over some of the axes or a plain
    value, which holds at every tuple."""
    lhs, rhs = _lift(lhs), _lift(rhs)
    shape, f = lhs.shape, require_same_field(lhs.field, rhs.field)
    if rhs.shape != shape:
        raise ShapeError(f"cannot compare values of shapes {shape} and "
                         f"{rhs.shape}")
    axes = tuple(range(arity))
    left, right = _spread(lhs, axes, n), _spread(rhs, axes, n)
    if left == right:
        return
    kind = _KINDS[len(shape)]
    for at, a, b in zip(itertools.product(range(n), repeat=arity),
                        left, right):
        if a != b:
            yield at, kind(f, a), kind(f, b)


def outer(x: Vector, y: Vector) -> Tensor2:
    x, y = _batches(x, y, (1, 1))
    f = require_same_field(x.field, y.field)
    return _pairwise(x, y, f, x.shape + y.shape,
                     lambda u, v: _outer_rows(f, u, v))


def apply_bilinear(p: ProductTensor, x: Vector, y: Vector) -> Vector:
    """Evaluate the bilinear product at (x, y), at every pair of entries.

    When some entry is used by several pairs, it builds the operator of
    multiplication by each entry of the smaller batch once and applies it
    to every entry of the other, instead of expanding each pair. When the
    join pairs the entries one to one, as on a shared axis or for two
    plain operands, no operator would be reused, and each pair is
    expanded directly from the tensor's ``left_planes``."""
    x, y = _batches(x, y, (1, 1))
    n = p.dim
    if x.shape != (n,) or y.shape != (n,):
        raise ShapeError(f"product dimension {n} does not match vectors "
                         f"{x.shape[0]}, {y.shape[0]}")
    f = require_same_field(p.field, x.field, y.field)
    axes, pairs = _join(x.axes, y.axes, x.n)
    xs, ys = x.entries, y.entries
    zero, red = f.zero, f.reduce_row
    out = []
    if len(pairs) == len(xs) == len(ys):
        # the same axes, so the pairs are (0, 0), (1, 1), ...
        left = p.left_planes
        for u, v in zip(xs, ys):
            acc = [zero] * n
            for a, plane in zip(u, left):
                if a:
                    for b, row in zip(v, plane):
                        if b:
                            ab = a * b
                            for k, c in row:
                                acc[k] += ab * c
            out.append(red(acc))
        return _lower(f, (n,), axes, x.n, out)
    if len(xs) <= len(ys):
        # mu(u, e_j) = sum_i u_i c[i][j]
        ops = [_operator(f, n, u, p.left_planes) for u in xs]
        others = ys
    else:
        # mu(e_i, v) = sum_j v_j c[i][j]
        ops = [_operator(f, n, v, p.right_planes) for v in ys]
        others = xs
        pairs = [(j, i) for i, j in pairs]
    # each operator meets each distinct argument once: products of basis
    # vectors take few values, so most arguments of run_suite's products
    # repeat; the memo has a slot per operator and distinct argument, at
    # most len(xs) * len(ys)
    distinct = {}
    keys = [distinct.setdefault(v, len(distinct)) for v in others]
    args = [_nonzeros(v) for v in distinct]
    memo = [[None] * len(args) for _ in ops]
    for i, j in pairs:
        j = keys[j]
        value = memo[i][j]
        if value is None:
            op = ops[i]
            acc = [zero] * n
            for a, w in args[j]:
                for k, c in op[a]:
                    acc[k] += w * c
            value = memo[i][j] = red(acc)
        out.append(value)
    return _lower(f, (n,), axes, x.n, out)


def apply_coproduct(q: CoproductTensor, x: Vector) -> Tensor2:
    """Evaluate the comultiplication at x, as an element of V (x) V, from
    the tensor's ``sparse_planes``."""
    x = _lift(x)
    n = q.dim
    if x.shape != (n,):
        raise ShapeError(f"coproduct dimension {n} does not match vector "
                         f"{x.shape}")
    f = require_same_field(q.field, x.field)
    planes, out = q.sparse_planes, []
    for xs in x.entries:
        acc = [f.zero] * (n * n)
        for c, plane in zip(xs, planes):
            if c:
                for ij, v in plane:
                    acc[ij] += c * v
        out.append(_rows(f, acc, n))
    return x._with(f, (n, n), out)


def bullet(p: ProductTensor, a: Tensor2, b: Tensor2) -> Tensor2:
    """Componentwise product on V (x) V:
    (x (x) y) . (x' (x) y') = mu(x, x') (x) mu(y, y').

    It is evaluated as sum_{j, j2} mu(a_j, b_j2) (x) mu(e_j, e_j2), where
    a_j is column j of a, with the operator of multiplication by each
    nonzero column of an entry of a built once."""
    n = p.dim
    a, b = _batches(a, b, (2, 2))
    if a.shape != (n, n) or b.shape != (n, n):
        raise ShapeError("bullet operands must match the product dimension")
    f = require_same_field(p.field, a.field, b.field)
    left = p.left_planes
    return _pairwise(a, b, f, (n, n),
                     lambda ops, cols: _bullet(f, left, ops, cols),
                     [[_operator(f, n, col, left) if any(col) else None
                       for col in zip(*e)] for e in a.entries],
                     [[_nonzeros(col) for col in zip(*e)] for e in b.entries])


def multiply_leg(p: ProductTensor, x: Vector, t: Tensor2, leg: int) -> Tensor2:
    """Multiply one leg of an element of V (x) V by x: ``leg=0`` applies
    mu(x, .) to the left leg of t, ``leg=1`` applies mu(., x) to its
    right leg. The operator of multiplication by each entry of x is built
    once and applied to every entry of t it is paired with."""
    if leg not in (0, 1):
        raise ShapeError(f"leg must be 0 or 1, got {leg}")
    n = p.dim
    planes = p.left_planes if leg == 0 else p.right_planes
    x, t = _batches(x, t, (1, 2))
    if x.shape != (n,) or t.shape != (n, n):
        raise ShapeError(f"product dimension {n} does not match operands "
                         f"{x.shape}, {t.shape}")
    f = require_same_field(p.field, x.field, t.field)
    return _pairwise(x, t, f, (n, n),
                     lambda op, e: _on_leg(f, op, e, leg),
                     [_operator(f, n, u, planes) for u in x.entries])


def map_on_leg3(t: Tensor3, g: LinearMap, leg: int) -> Tensor3:
    """Apply a linear map to one leg of a cube."""
    if leg not in (0, 1, 2):
        raise ShapeError(f"leg must be 0, 1 or 2, got {leg}")
    t = _lift(t)
    shape = list(t.shape)
    if len(shape) != 3 or shape[leg] != g.source_dim:
        raise ShapeError(f"map expects dimension {g.source_dim}, got leg "
                         f"{leg} of cube {tuple(shape)}")
    f = require_same_field(t.field, g.field)
    if g._identity:
        return _identity_image(t, f)
    shape[leg] = g.target_dim
    dot, red, rows = _sparse_rows(f, g.rows)
    return t._with(f, tuple(shape), [_map_on_leg3(dot, red, rows, e, leg)
                                     for e in t.entries])


def coproduct_on_left(t: Tensor2, q: CoproductTensor) -> Tensor3:
    """(delta (x) id) applied to an element of V (x) V."""
    return _coproduct_on_leg(t, q, 0)


def coproduct_on_right(t: Tensor2, q: CoproductTensor) -> Tensor3:
    """(id (x) delta) applied to an element of V (x) V."""
    return _coproduct_on_leg(t, q, 1)


def _coproduct_on_leg(t, q, leg):
    t = _lift(t)
    f = require_same_field(t.field, q.field)
    n, planes = q.dim, q.sparse_planes
    if t.shape != (n, n):
        raise ShapeError(f"coproduct dimension {n} does not match tensor "
                         f"square {t.shape}")
    out = []
    for rows in t.entries:
        cube = [f.zero] * (n * n * n)
        if leg == 0:
            for trow, plane in zip(rows, planes):
                nz = _nonzeros(trow)
                if nz:
                    for ab, w in plane:
                        ab *= n
                        for k, v in nz:
                            cube[ab + k] += v * w
        else:
            for r, trow in enumerate(rows):
                r *= n * n
                for v, plane in zip(trow, planes):
                    if v:
                        for ab, w in plane:
                            cube[r + ab] += v * w
        cube = _rows(f, cube, n)
        out.append(tuple([cube[i:i + n] for i in range(0, n * n, n)]))
    return t._with(f, (n, n, n), out)


def tensors_equal(a, b) -> bool:
    """Exact entrywise equality for any two values of one shape and field."""
    if type(a) is not type(b):
        raise ShapeError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    require_same_field(a.field, b.field)
    if isinstance(a, Vector):
        if a.dim != b.dim:
            raise ShapeError("vector dimensions differ")
        return a.coords == b.coords
    if isinstance(a, LinearMap):
        if (a.source_dim, a.target_dim) != (b.source_dim, b.target_dim):
            raise ShapeError("map shapes differ")
        return a.rows == b.rows
    if isinstance(a, ProductTensor):
        if a.dim != b.dim:
            raise ShapeError("product dimensions differ")
        return a.c == b.c
    if isinstance(a, CoproductTensor):
        if a.dim != b.dim:
            raise ShapeError("coproduct dimensions differ")
        return a.d == b.d
    if isinstance(a, (Tensor2, Tensor3)):
        if a.shape != b.shape:
            raise ShapeError("tensor shapes differ")
        return a.entries == b.entries
    raise ShapeError(f"unsupported type {type(a).__name__}")


def product_from_basis_values(field, n: int, value_at) -> ProductTensor:
    """Build a product tensor from a callable giving mu(e_i, e_j) as a Vector."""
    c = []
    for i in range(n):
        plane = []
        for j in range(n):
            v = value_at(i, j)
            if v.dim != n:
                raise ShapeError("basis value has wrong dimension")
            plane.append(tuple(v.coords))
        c.append(tuple(plane))
    return ProductTensor(field, tuple(c))


def _outer_rows(f, xs, ys):
    red = f.reduce_row
    zero_row = (f.zero,) * len(ys)
    return tuple(red([a * b for b in ys]) if a else zero_row for a in xs)


def _bullet(f, left, ops, cols):
    """sum_{j, j2} mu(a_j, b_j2) (x) mu(e_j, e_j2), from the operators of
    multiplication by the columns a_j of a (None for a zero column) and
    the nonzeros of the columns b_j2 of b."""
    zero = f.zero
    n = len(left)
    out = [zero] * (n * n)
    for op, plane in zip(ops, left):
        if op is None:
            continue
        for col, right in zip(cols, plane):
            if not col or not right:
                continue
            # mu(a_j, b_j2), unreduced
            acc = [zero] * n
            for i2, w in col:
                for k, v in op[i2]:
                    acc[k] += w * v
            for k, u in enumerate(acc):
                if u:
                    k *= n
                    for m, cr in right:
                        out[k + m] += u * cr
    return _rows(f, out, n)


def _on_leg(f, op, rows, leg):
    """The operator ``op`` (rows of (index, value) pairs) applied to the
    left leg (``leg=0``) or the right leg (``leg=1``) of a tensor square
    given as rows."""
    n = len(op)
    out = [f.zero] * (n * n)
    if leg == 0:
        for row, oprow in zip(rows, op):
            if not oprow:
                continue
            nz = _nonzeros(row)
            for k, v in oprow:
                k *= n
                for m, w in nz:
                    out[k + m] += v * w
    else:
        for k, row in enumerate(rows):
            k *= n
            for w, oprow in zip(row, op):
                if w:
                    for m, v in oprow:
                        out[k + m] += w * v
    return _rows(f, out, n)


def _map_on_leg3(dot, red, rows, e, leg):
    if leg == 0:
        # fibers[j][k] = (e[0][j][k], e[1][j][k], ...)
        fibers = [list(zip(*planes)) for planes in zip(*e)]
        return tuple(tuple(red([dot(grow, fib) for fib in row])
                           for row in fibers)
                     for grow in rows)
    if leg == 1:
        return tuple(tuple(red([dot(grow, col) for col in cols])
                           for grow in rows)
                     for cols in (list(zip(*plane)) for plane in e))
    return tuple(tuple(red([dot(grow, row) for grow in rows])
                       for row in plane)
                 for plane in e)


def _leg_map_field(dim, field, g, side):
    if g.source_dim != dim:
        raise ShapeError(f"{side} leg dimension mismatch")
    return require_same_field(field, g.field)


def _functional_field(dim, field, functional, side):
    if functional.target_dim != 1 or functional.source_dim != dim:
        raise ShapeError(f"functional must be 1 x {side}-dim")
    return require_same_field(field, functional.field)


def _operator(f, n, u, planes):
    """sum_i u[i] * planes[i] for planes whose rows are the (index, value)
    pairs of their nonzero entries, as rows of the same form: a product
    with one argument fixed at u, as a map. At a basis vector it is the
    plane itself."""
    terms = [(a, plane) for a, plane in zip(u, planes) if a]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    acc = [f.zero] * (n * n)
    for a, plane in terms:
        for i, prow in enumerate(plane):
            i *= n
            for k, v in prow:
                acc[i + k] += a * v
    return list(map(_nonzeros, _rows(f, acc, n)))


def _sparse_rows(f, rows):
    """The rows of a map as their nonzero (index, value) pairs, the
    unreduced inner product of such a row with a dense one, and the
    ``reduce_row`` for rows of them: how leg maps map every entry."""
    zero = f.zero

    def dot(row, xs):
        acc = zero
        for i, a in row:
            x = xs[i]
            if x:
                acc += a * x
        return acc

    return dot, f.reduce_row, [_nonzeros(r) for r in rows]


def _nonzeros(xs):
    return [(i, x) for i, x in enumerate(xs) if x]


def _shape_of(v):
    if type(v) is Vector:
        return (v.dim,)
    if type(v) in (Tensor2, Tensor3):
        return v.shape
    raise ShapeError(f"unsupported type {type(v).__name__}")


def _lift(v, n=1):
    """``v`` as a batch: a plain value is a batch over no axes whose one
    entry is its raw value, with ``n`` entries per axis to match the
    batches it is joined with; a batch is itself."""
    if type(v) is Batch:
        return v
    shape = _shape_of(v)
    return _batch(v.field, shape, (), n,
                  [v.coords if type(v) is Vector else v.entries])


def _lower(f, shape, axes, n, entries):
    """A result over ``axes`` as a batch, or over no axes, where every
    operand was plain, as the plain value of its one entry."""
    if axes:
        return _batch(f, shape, axes, n, entries)
    return _KINDS[len(shape)](f, entries[0])


def _batch(field, shape, axes, n, entries):
    """A batch built without the constructor's checks, for entries this
    package made: a primitive's results and the oracle's samples."""
    b = Batch.__new__(Batch)
    b.field, b.shape, b.axes, b.n, b.entries = field, shape, axes, n, entries
    return b


def _nests_as(entries, shape):
    """Whether each of ``entries`` is a tuple or list of ``shape[0]``
    items that nest as ``shape[1:]``, down to scalars."""
    size, rest = shape[0], shape[1:]
    return all(isinstance(e, (tuple, list)) and len(e) == size
               and (_nests_as(e, rest) if rest else
                    not any(isinstance(x, (tuple, list)) for x in e))
               for e in entries)


def _identity_image(v, f):
    """``v`` under an identity map over ``f``: a batch is its own image,
    its entries being reduced already; a lifted plain value comes back
    with each scalar reduced, as the general path gives it."""
    if v.axes:
        return v
    return v._with(f, v.shape,
                   [_rowwise(f.reduce_row, len(v.shape), v.entries[0])])


def _batches(x, y, ranks=None):
    """Two operands as batches with one number of entries per axis, each
    plain value lifted. ``ranks`` are the shape lengths they need."""
    if type(x) is not Batch:
        x = _lift(x, y.n if type(y) is Batch else 1)
    if type(y) is not Batch:
        y = _lift(y, x.n)
    elif x.n != y.n:
        raise ShapeError(f"batches with {x.n} and {y.n} entries per axis")
    if ranks is not None and (len(x.shape), len(y.shape)) != ranks:
        raise ShapeError(f"operands of shapes {x.shape} and {y.shape}")
    return x, y


@lru_cache(maxsize=1024)
def _join(axes_x, axes_y, n):
    """The union of two batches' axes and, for each basis tuple over it in
    ``itertools.product`` order, the index of its entry in each batch. An
    axis the two share takes one index, so it is joined, not multiplied
    out."""
    axes = tuple(sorted(set(axes_x) | set(axes_y)))

    def index(t, sub):
        i = 0
        for a in sub:
            i = i * n + t[axes.index(a)]
        return i

    return axes, tuple((index(t, axes_x), index(t, axes_y))
                       for t in itertools.product(range(n), repeat=len(axes)))


def _pairwise(x, y, f, shape, fn, xs=None, ys=None):
    """``fn`` at every pair of entries over the union of the axes; ``xs``
    and ``ys`` replace the entries of ``x`` and ``y`` by forms ``fn``
    takes, computed once per entry."""
    axes, pairs = _join(x.axes, y.axes, x.n)
    xs = x.entries if xs is None else xs
    ys = y.entries if ys is None else ys
    return _lower(f, shape, axes, x.n, [fn(xs[i], ys[j]) for i, j in pairs])


def _entrywise(x, y, op):
    x, y = _batches(x, y)
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    f = require_same_field(x.field, y.field)
    red, depth = f.reduce_row, len(x.shape)

    def row(a, b):
        return red(list(map(op, a, b)))

    return _pairwise(x, y, f, x.shape,
                     lambda u, v: _rowwise(row, depth, u, v))


def _rowwise(fn, depth, *values):
    """``fn`` at each row of raw values of the given depth, taken in step."""
    if depth == 1:
        return fn(*values)
    return tuple([_rowwise(fn, depth - 1, *rows) for rows in zip(*values)])


def _spread(v, axes, n):
    """A batch's raw entries at every basis tuple over ``axes``."""
    if v.axes == axes:
        return v.entries
    e = v.entries
    return [e[i] for i, _ in _join(v.axes, axes, n)[1]]


def _square_shape(b):
    if len(b.shape) != 2:
        raise ShapeError(f"expected a batch of tensor squares, got shape "
                         f"{b.shape}")
    return b.shape


def _rows(f, acc, n):
    """A flat accumulator, reduced by one field call, as rows of n."""
    t = f.reduce_row(acc)
    return tuple([t[i:i + n] for i in range(0, len(t), n)])

