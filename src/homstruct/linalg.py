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

Scalar loops use the native ``+`` and ``*`` of the field's scalars
(ints, and over QQ a ``Fraction`` for a non-integral value), skip zero
factors, and call the field's ``reduce`` once per output entry. Over
GF(p), sums and products of residues are reduced mod p only at the end,
which gives the same residue because Python ints do not overflow. Over
QQ, ``reduce`` turns an integral ``Fraction`` back into an ``int``, so
every output entry is in the field's canonical form and integral data
stays in native int arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .errors import ShapeError
from .fields import require_same_field


@dataclass(frozen=True)
class Vector:
    field: object
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self):
        return len(self.coords)

    def add(self, other: "Vector") -> "Vector":
        _same_dim(self, other)
        f = require_same_field(self.field, other.field)
        return Vector(f, tuple(map(f.reduce, map(add, self.coords, other.coords))))

    def sub(self, other: "Vector") -> "Vector":
        _same_dim(self, other)
        f = require_same_field(self.field, other.field)
        return Vector(f, tuple(map(f.reduce, map(sub, self.coords, other.coords))))

    def scale(self, c) -> "Vector":
        f = self.field
        return Vector(f, tuple([f.reduce(c * a) for a in self.coords]))


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

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def apply(self, v: Vector) -> Vector:
        if v.dim != self.source_dim:
            raise ShapeError(f"map expects dimension {self.source_dim}, got {v.dim}")
        f = require_same_field(self.field, v.field)
        dot, x = f.dot, v.coords
        return Vector(f, tuple([dot(row, x) for row in self.rows]))

    def column(self, j: int) -> Vector:
        return Vector(self.field, tuple(row[j] for row in self.rows))

    def is_identity(self) -> bool:
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

    def entry(self, i: int, j: int, k: int):
        return self.c[i][j][k]


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

    def entry(self, k: int, i: int, j: int):
        return self.d[k][i][j]


@dataclass(frozen=True)
class Tensor2:
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

    def add(self, other: "Tensor2") -> "Tensor2":
        _same_shape(self, other)
        f = require_same_field(self.field, other.field)
        red = f.reduce
        return Tensor2(f, tuple(tuple(map(red, map(add, ra, rb)))
                                for ra, rb in zip(self.entries, other.entries)))

    def sub(self, other: "Tensor2") -> "Tensor2":
        _same_shape(self, other)
        f = require_same_field(self.field, other.field)
        red = f.reduce
        return Tensor2(f, tuple(tuple(map(red, map(sub, ra, rb)))
                                for ra, rb in zip(self.entries, other.entries)))

    def map_left(self, g: LinearMap) -> "Tensor2":
        """Apply g to the left tensor leg."""
        n, m = self.shape
        if g.source_dim != n:
            raise ShapeError("left leg dimension mismatch")
        f = require_same_field(self.field, g.field)
        dot = f.dot
        cols = list(zip(*self.entries))
        return Tensor2(f, tuple(tuple([dot(grow, col) for col in cols])
                                for grow in g.rows))

    def map_right(self, g: LinearMap) -> "Tensor2":
        """Apply g to the right tensor leg."""
        n, m = self.shape
        if g.source_dim != m:
            raise ShapeError("right leg dimension mismatch")
        f = require_same_field(self.field, g.field)
        dot = f.dot
        return Tensor2(f, tuple(tuple([dot(grow, row) for grow in g.rows])
                                for row in self.entries))

    def contract_left(self, functional: LinearMap) -> Vector:
        """Contract the left leg with a 1-by-n functional, leaving a vector."""
        n, m = self.shape
        if functional.target_dim != 1 or functional.source_dim != n:
            raise ShapeError("functional must be 1 x left-dim")
        f = require_same_field(self.field, functional.field)
        dot, row = f.dot, functional.rows[0]
        return Vector(f, tuple([dot(row, col) for col in zip(*self.entries)]))

    def contract_right(self, functional: LinearMap) -> Vector:
        n, m = self.shape
        if functional.target_dim != 1 or functional.source_dim != m:
            raise ShapeError("functional must be 1 x right-dim")
        f = require_same_field(self.field, functional.field)
        dot, row = f.dot, functional.rows[0]
        return Vector(f, tuple([dot(row, erow) for erow in self.entries]))


@dataclass(frozen=True)
class Tensor3:
    """An element of V (x) V (x) V as a cubical coefficient array."""

    field: object
    entries: tuple  # entries[i][j][k]

    def __post_init__(self):
        e = tuple(tuple(tuple(k) for k in j) for j in self.entries)
        object.__setattr__(self, "entries", e)

    def add(self, other: "Tensor3") -> "Tensor3":
        f = require_same_field(self.field, other.field)
        red = f.reduce
        return Tensor3(f, tuple(
            tuple(tuple(map(red, map(add, ra, rb))) for ra, rb in zip(pa, pb))
            for pa, pb in zip(self.entries, other.entries)))

    def sub(self, other: "Tensor3") -> "Tensor3":
        f = require_same_field(self.field, other.field)
        red = f.reduce
        return Tensor3(f, tuple(
            tuple(tuple(map(red, map(sub, ra, rb))) for ra, rb in zip(pa, pb))
            for pa, pb in zip(self.entries, other.entries)))


def outer(x: Vector, y: Vector) -> Tensor2:
    f = require_same_field(x.field, y.field)
    return Tensor2(f, _outer_rows(f, x.coords, y.coords))


def outer3_vt(x: Vector, t: Tensor2) -> Tensor3:
    """x (x) t as an element of V (x) V (x) V."""
    f = require_same_field(x.field, t.field)
    red = f.reduce
    return Tensor3(f, tuple(
        tuple(tuple([red(a * e) for e in row]) for row in t.entries)
        for a in x.coords))


def outer3_tv(t: Tensor2, z: Vector) -> Tensor3:
    """t (x) z as an element of V (x) V (x) V."""
    f = require_same_field(t.field, z.field)
    return Tensor3(f, tuple(_outer_rows(f, row, z.coords) for row in t.entries))


def apply_bilinear(p: ProductTensor, x: Vector, y: Vector) -> Vector:
    """Evaluate the bilinear product at (x, y)."""
    if p.dim != x.dim or p.dim != y.dim:
        raise ShapeError(f"product dimension {p.dim} does not match vectors "
                         f"{x.dim}, {y.dim}")
    f = require_same_field(p.field, x.field, y.field)
    out = [f.zero] * p.dim
    ys = y.coords
    for a, plane in zip(x.coords, p.c):
        if not a:
            continue
        for b, row in zip(ys, plane):
            if not b:
                continue
            ab = a * b
            for k, c in enumerate(row):
                if c:
                    out[k] += ab * c
    return Vector(f, tuple(map(f.reduce, out)))


def apply_coproduct(q: CoproductTensor, x: Vector) -> Tensor2:
    """Evaluate the comultiplication at x, as an element of V (x) V."""
    if q.dim != x.dim:
        raise ShapeError(f"coproduct dimension {q.dim} does not match vector {x.dim}")
    f = require_same_field(q.field, x.field)
    n = q.dim
    acc = _zeros2(f, n)
    for c, plane in zip(x.coords, q.d):
        if c:
            _add_scaled_plane(acc, c, plane)
    return Tensor2(f, _reduced(f, acc))


def bullet(p: ProductTensor, a: Tensor2, b: Tensor2) -> Tensor2:
    """Componentwise product on V (x) V:
    (x (x) y) . (x' (x) y') = mu(x, x') (x) mu(y, y')."""
    n = p.dim
    if a.shape != (n, n) or b.shape != (n, n):
        raise ShapeError("bullet operands must match the product dimension")
    f = require_same_field(p.field, a.field, b.field)
    out = _zeros2(f, n)
    c = p.c
    right = [(i2, j2, v) for i2, row in enumerate(b.entries)
             for j2, v in enumerate(row) if v]
    for i, arow in enumerate(a.entries):
        plane_l = c[i]
        for j, u in enumerate(arow):
            if not u:
                continue
            plane_r = c[j]
            for i2, j2, v in right:
                uv = u * v
                row_r = plane_r[j2]
                for k, cl in enumerate(plane_l[i2]):
                    if not cl:
                        continue
                    ucl = uv * cl
                    orow = out[k]
                    for m, cr in enumerate(row_r):
                        if cr:
                            orow[m] += ucl * cr
    return Tensor2(f, _reduced(f, out))


def product_on_legs(t: Tensor3, p: ProductTensor, legs) -> Tensor2:
    """Contract two adjacent legs of a cube with a product.

    ``legs=(0, 1)`` turns sum T_ijk e_i(x)e_j(x)e_k into
    sum T_ijk mu(e_i,e_j)(x)e_k; ``legs=(1, 2)`` acts on the right pair.
    """
    if legs not in ((0, 1), (1, 2)):
        raise ShapeError(f"legs must be (0, 1) or (1, 2), got {legs}")
    f = require_same_field(t.field, p.field)
    out = _zeros2(f, p.dim)
    c = p.c
    for i, plane in enumerate(t.entries):
        if legs == (0, 1):
            for j, row in enumerate(plane):
                cij = c[i][j]
                for k, v in enumerate(row):
                    if v:
                        for m, cm in enumerate(cij):
                            if cm:
                                out[m][k] += v * cm
        else:
            orow = out[i]
            for j, row in enumerate(plane):
                cj = c[j]
                for k, v in enumerate(row):
                    if v:
                        for m, cm in enumerate(cj[k]):
                            if cm:
                                orow[m] += v * cm
    return Tensor2(f, _reduced(f, out))


def map_on_leg3(t: Tensor3, g: LinearMap, leg: int) -> Tensor3:
    """Apply a linear map to one leg of a cube."""
    f = require_same_field(t.field, g.field)
    dot, e = f.dot, t.entries
    if leg == 0:
        # fibers[j][k] = (e[0][j][k], e[1][j][k], ...)
        fibers = [list(zip(*planes)) for planes in zip(*e)]
        return Tensor3(f, tuple(
            tuple(tuple([dot(grow, fib) for fib in row]) for row in fibers)
            for grow in g.rows))
    if leg == 1:
        return Tensor3(f, tuple(
            tuple(tuple([dot(grow, col) for col in cols]) for grow in g.rows)
            for cols in (list(zip(*plane)) for plane in e)))
    if leg == 2:
        return Tensor3(f, tuple(
            tuple(tuple([dot(grow, row) for grow in g.rows]) for row in plane)
            for plane in e))
    raise ShapeError(f"leg must be 0, 1 or 2, got {leg}")


def coproduct_on_left(t: Tensor2, q: CoproductTensor) -> Tensor3:
    """(delta (x) id) applied to an element of V (x) V."""
    f = require_same_field(t.field, q.field)
    n = q.dim
    out = [_zeros2(f, n) for _ in range(n)]
    for trow, plane in zip(t.entries, q.d):
        for k, v in enumerate(trow):
            if not v:
                continue
            for a, prow in enumerate(plane):
                oplane = out[a]
                for b, w in enumerate(prow):
                    if w:
                        oplane[b][k] += v * w
    return Tensor3(f, tuple(_reduced(f, plane) for plane in out))


def coproduct_on_right(t: Tensor2, q: CoproductTensor) -> Tensor3:
    """(id (x) delta) applied to an element of V (x) V."""
    f = require_same_field(t.field, q.field)
    n = q.dim
    out = [_zeros2(f, n) for _ in range(n)]
    for trow, oplane in zip(t.entries, out):
        for v, plane in zip(trow, q.d):
            if v:
                _add_scaled_plane(oplane, v, plane)
    return Tensor3(f, tuple(_reduced(f, plane) for plane in out))


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
    if isinstance(a, Tensor2):
        if a.shape != b.shape:
            raise ShapeError("tensor shapes differ")
        return a.entries == b.entries
    if isinstance(a, Tensor3):
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
    red = f.reduce
    return tuple(tuple([red(a * b) for b in ys]) for a in xs)


def _zeros2(f, n):
    return [[f.zero] * n for _ in range(n)]


def _add_scaled_plane(acc, c, plane):
    """acc += c * plane entrywise, skipping zero entries, unreduced."""
    for arow, prow in zip(acc, plane):
        for j, v in enumerate(prow):
            if v:
                arow[j] += c * v


def _reduced(f, acc):
    red = f.reduce
    return tuple(tuple(map(red, row)) for row in acc)


def _same_dim(a: Vector, b: Vector):
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _same_shape(a: Tensor2, b: Tensor2):
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
