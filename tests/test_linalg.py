import dataclasses
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import homstruct as hs
from homstruct import axioms, documents, linalg
from homstruct.constructions import (ASSEMBLY_KINDS, assemble_two,
                                     kaplansky_k1, kaplansky_k2,
                                     tensor_product, yau_twist)
from homstruct.corpus import DATA_DIR
from homstruct.errors import FieldMismatchError, ShapeError
from homstruct.fields import PrimeField
from homstruct.linalg import (Batch, apply_bilinear, apply_coproduct,
                              basis_batch, bullet, compose, coproduct_on_left,
                              coproduct_on_right, kron, map_on_leg3,
                              mismatches, multiply_leg, outer, tensors_equal)
from homstruct.oracle import RATIONAL_POOL

from conftest import F, lmap, vec


# ---------------------------------------------------------------------------
# references: the cube-based leg products and the nested bullet loop that
# the library evaluated before its factored forms, on plain values only

def outer3_vt(x, t):
    """x (x) t as an element of V (x) V (x) V."""
    f = require_same(x.field, t.field)
    return hs.Tensor3(f, tuple(tuple(tuple(f.reduce(a * e) for e in row)
                                     for row in t.entries) for a in x.coords))


def outer3_tv(t, z):
    """t (x) z as an element of V (x) V (x) V."""
    f = require_same(t.field, z.field)
    return hs.Tensor3(f, tuple(tuple(tuple(f.reduce(a * b) for b in z.coords)
                                     for a in row) for row in t.entries))


def product_on_legs(t, p, legs):
    """Contract two adjacent legs of a cube with a product: ``legs=(0,
    1)`` turns sum T_ijk e_i (x) e_j (x) e_k into sum T_ijk mu(e_i, e_j)
    (x) e_k, ``legs=(1, 2)`` acts on the right pair."""
    n, c = p.dim, p.c
    assert legs in ((0, 1), (1, 2)) and t.shape == (n, n, n)
    f = require_same(t.field, p.field)
    out = [[f.zero] * n for _ in range(n)]
    for i, plane in enumerate(t.entries):
        for j, row in enumerate(plane):
            for k, v in enumerate(row):
                if not v:
                    continue
                for m, cm in enumerate(c[i][j] if legs == (0, 1)
                                       else c[j][k]):
                    if cm:
                        if legs == (0, 1):
                            out[m][k] += v * cm
                        else:
                            out[i][m] += v * cm
    return hs.Tensor2(f, tuple(tuple(f.reduce(v) for v in row)
                               for row in out))


def nested_bullet(p, a, b):
    """The bullet product as the n^6 loop over both operands' entries."""
    f, c, n = require_same(p.field, a.field, b.field), p.c, p.dim
    right = [(i, j, v) for i, row in enumerate(b.entries)
             for j, v in enumerate(row) if v]
    out = [[f.zero] * n for _ in range(n)]
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
                    for m, cr in enumerate(row_r):
                        if cr:
                            out[k][m] += uv * cl * cr
    return hs.Tensor2(f, tuple(tuple(f.reduce(v) if v else f.zero
                                     for v in row) for row in out))


def require_same(*fields):
    assert all(g == fields[0] for g in fields)
    return fields[0]


class TestApplyBilinear:
    def test_basis_value_from_table(self, hom3dim):
        # the (e1, e3) entry of the 3-dim table is 2*e3
        out = apply_bilinear(hom3dim.mu, vec([1, 0, 0]), vec([0, 0, 1]))
        assert out.coords == vec([0, 0, 2]).coords

    def test_zero_vector_annihilates(self, hom3dim):
        zero = hs.zero_vector(F, 3)
        out = apply_bilinear(hom3dim.mu, zero, vec([1, 1, 1]))
        assert out.coords == zero.coords

    def test_bilinear_expansion(self, hom3dim):
        # (e1 + e2, e3) expands to 2*e3 + 2*e3
        out = apply_bilinear(hom3dim.mu, vec([1, 1, 0]), vec([0, 0, 1]))
        assert out.coords == vec([0, 0, 4]).coords

    def test_dimension_mismatch(self, hom3dim):
        with pytest.raises(ShapeError):
            apply_bilinear(hom3dim.mu, vec([1, 0]), vec([0, 0, 1]))

    def test_mixed_fields_rejected(self, hom3dim):
        gf = PrimeField(2)
        x = hs.Vector(gf, (1, 0, 0))
        with pytest.raises(Exception):
            apply_bilinear(hom3dim.mu, x, x)

    def test_agrees_with_multilinear_extension(self, hom3dim):
        rng = random.Random(7)
        pool = [Fraction(k) for k in range(-2, 3)]
        basis = [hs.basis_vector(F, 3, i) for i in range(3)]
        for _ in range(20):
            x = vec([rng.choice(pool) for _ in range(3)])
            y = vec([rng.choice(pool) for _ in range(3)])
            direct = apply_bilinear(hom3dim.mu, x, y)
            expanded = hs.zero_vector(F, 3)
            for i in range(3):
                for j in range(3):
                    term = apply_bilinear(hom3dim.mu, basis[i], basis[j])
                    expanded = expanded.add(
                        term.scale(F.mul(x.coords[i], y.coords[j])))
            assert tensors_equal(direct, expanded)


class TestApplyCoproduct:
    def test_basis_value(self, coalg2dim):
        t = apply_coproduct(coalg2dim.delta, vec([1, 0]))
        assert t.entries == ((F.zero, F.zero), (F.zero, F.one))

    def test_zero(self, coalg2dim):
        t = apply_coproduct(coalg2dim.delta, vec([0, 0]))
        assert t.entries == ((F.zero, F.zero), (F.zero, F.zero))

    def test_linearity(self, coalg2dim):
        t = apply_coproduct(coalg2dim.delta, vec([1, 1]))
        assert t.entries[1][1] == F.coerce(2)


class TestComposeKron:
    def test_kron_identities(self):
        id2 = hs.identity_map(F, 2)
        assert kron(id2, id2).rows == hs.identity_map(F, 4).rows

    def test_collapse_map_is_idempotent(self):
        alpha = lmap([[0, 0], [1, 1]])
        assert compose(alpha, alpha).rows == alpha.rows

    def test_kron_action_on_elementary_tensor(self):
        alpha = lmap([[0, 0], [1, 1]])
        e1e1 = hs.Vector(F, (F.one, F.zero, F.zero, F.zero))
        out = kron(alpha, alpha).apply(e1e1)
        # the image is e2 (x) e2, the last slot in lexicographic order
        assert out.coords == (F.zero, F.zero, F.zero, F.one)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=16, max_size=16),
           st.lists(st.integers(-3, 3), min_size=16, max_size=16))
    def test_kron_multiplicative(self, a_entries, b_entries):
        def as_map(entries):
            rows = [entries[i * 4:(i + 1) * 4][:2] for i in range(2)]
            other = [entries[8 + i * 2:10 + i * 2] for i in range(2)]
            return lmap(rows), lmap(other)

        f, h = as_map(a_entries)
        g, k = as_map(b_entries)
        lhs = compose(kron(f, g), kron(h, k))
        rhs = kron(compose(f, h), compose(g, k))
        assert tensors_equal(lhs, rhs)

    def test_lexicographic_ordering_consistent(self):
        f = lmap([[1, 2], [3, 4]])
        g = lmap([[0, 1], [1, 1]])
        for i in range(2):
            for j in range(2):
                e = hs.zero_vector(F, 4)
                coords = list(e.coords)
                coords[i * 2 + j] = F.one
                flat = kron(f, g).apply(hs.Vector(F, tuple(coords)))
                expected = outer(f.apply(hs.basis_vector(F, 2, i)),
                                 g.apply(hs.basis_vector(F, 2, j)))
                unflat = tuple(flat.coords[a * 2 + b]
                               for a in range(2) for b in range(2))
                assert unflat == tuple(x for row in expected.entries
                                       for x in row)

    def test_compose_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compose(lmap([[1, 0]]), lmap([[1, 0]]))


class TestTensorsEqual:
    def test_reflexive(self, hom3dim):
        assert tensors_equal(hom3dim.mu, hom3dim.mu)

    def test_canonical_rationals(self):
        a = vec(["1/2", 0])
        b = vec(["2/4", 0])
        assert tensors_equal(a, b)

    def test_opposite_of_noncommutative_differs(self, hom3dim):
        from homstruct.constructions import opposite
        assert not tensors_equal(hom3dim.mu, opposite(hom3dim.mu))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            tensors_equal(vec([1, 0]), vec([1, 0, 0]))
        with pytest.raises(ShapeError):
            tensors_equal(vec([1, 0]), lmap([[1, 0]]))
        with pytest.raises(ShapeError):
            tensors_equal(_cube(2), _cube(3))


def _cube(n, kind=hs.Tensor3):
    """The n-cube of ones, plain or as a batch of one entry."""
    entries = tuple(tuple((1,) * n for _ in range(n)) for _ in range(n))
    if kind is Batch:
        return Batch(F, (n, n, n), (0,), 1, [entries])
    return hs.Tensor3(F, entries)


@pytest.mark.parametrize("kind", [hs.Tensor3, Batch], ids=["plain", "batch"])
class TestCubeShapes:
    """Every cube operation rejects operands of mismatched dimensions,
    where zipping them would silently truncate a sum."""

    def test_add_and_sub(self, kind):
        for a, b in ((_cube(2, kind), _cube(3)), (_cube(3, kind), _cube(2)),
                     (_cube(2), _cube(3, kind)), (_cube(3), _cube(2, kind))):
            with pytest.raises(ShapeError):
                a.add(b)
            with pytest.raises(ShapeError):
                a.sub(b)

    def test_map_on_leg3(self, kind):
        g = lmap([[1, 1, 1], [1, 1, 1]])  # 2x3: needs a leg of dimension 3
        for leg in (0, 1, 2):
            with pytest.raises(ShapeError):
                map_on_leg3(_cube(2, kind), g, leg)
        square = hs.Tensor2(F, ((1, 1), (1, 1)))
        if kind is Batch:
            square = Batch(F, (2, 2), (0,), 1, [square.entries])
        with pytest.raises(ShapeError):
            map_on_leg3(square, lmap([[1, 1], [1, 1]]), 2)

    def test_coproduct_on_legs(self, kind):
        q = hs.CoproductTensor(F, _cube(3).entries)
        for n in (2, 4):
            square = hs.Tensor2(F, ((1,) * n,) * n)
            if kind is Batch:
                square = Batch(F, (n, n), (0,), 1, [square.entries])
            for fn in (coproduct_on_left, coproduct_on_right):
                with pytest.raises(ShapeError):
                    fn(square, q)

    def test_ragged_cube(self, kind):
        # refused when built, as a ragged square is: a ragged cube would
        # report the shape of its first row and plane, and its sums and
        # leg maps would zip truncated rows
        for entries in ((((1, 2), (0,)), ((1, 1), (1, 1))),
                        (((1, 2), (0, 1)), ((1, 1),)),
                        (((1, 2), (0, 1)), ())):
            with pytest.raises(ShapeError, match="ragged cube"):
                hs.Tensor3(PrimeField(3), entries)

    def test_product_on_legs(self, kind):
        # the leg product that replaced the cube contraction
        p = hs.ProductTensor(F, _cube(3).entries)
        square = hs.Tensor2(F, ((1, 1), (1, 1)))
        x = vec([1, 1])
        if kind is Batch:
            square = Batch(F, (2, 2), (0,), 1, [square.entries])
            x = Batch(F, (2,), (0,), 1, [x.coords])
        for leg in (0, 1):
            with pytest.raises(ShapeError):
                multiply_leg(p, x, square, leg)
            with pytest.raises(ShapeError):
                multiply_leg(p, vec([1, 1, 1]), square, leg)
            with pytest.raises(ShapeError):
                multiply_leg(p, x, hs.Tensor2(F, ((1,) * 3,) * 3), leg)
        with pytest.raises(ShapeError):
            multiply_leg(p, vec([1, 1, 1]), hs.Tensor2(F, ((1,) * 3,) * 3), 2)


def test_map_on_leg_matches_elementary_tensors(half):
    g = lmap([[0, 1], [1, half]])
    x, y, z = vec([1, 2]), vec([3, 0]), vec([0, 5])
    cube = outer3_vt(x, outer(y, z))
    for leg, (a, b, c) in ((0, (g.apply(x), y, z)),
                           (1, (x, g.apply(y), z)),
                           (2, (x, y, g.apply(z)))):
        got = map_on_leg3(cube, g, leg)
        expected = outer3_vt(a, outer(b, c))
        assert tensors_equal(got, expected)


def test_bullet_matches_componentwise_products(z2group):
    mu = z2group.mu
    a = outer(vec([1, 1]), vec([1, 0]))
    b = outer(vec([0, 1]), vec([1, 1]))
    got = bullet(mu, a, b)
    expected = outer(apply_bilinear(mu, vec([1, 1]), vec([0, 1])),
                     apply_bilinear(mu, vec([1, 0]), vec([1, 1])))
    assert tensors_equal(got, expected)


# ---------------------------------------------------------------------------
# the native-operator primitives against references built from the field
# methods alone

PRIMES = (PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(2 ** 31 - 1))
FIELDS = (F,) + PRIMES


def _fsum(f, products):
    """sum of products of scalars, with f.add and f.mul only."""
    acc = f.zero
    for factors in products:
        term = f.one
        for x in factors:
            term = f.mul(term, x)
        acc = f.add(acc, term)
    return acc


def _canonical(f, value):
    """Every scalar in a nested tuple has its field's one representation:
    over QQ an int, or a Fraction whose denominator exceeds 1; over GF(p)
    a residue in [0, p)."""
    if isinstance(value, tuple):
        return all(_canonical(f, x) for x in value)
    if isinstance(f, PrimeField):
        return type(value) is int and 0 <= value < f.p
    return type(value) is int or (type(value) is Fraction
                                  and value.denominator > 1)


def _array(data, f, *shape):
    """A nested tuple of scalars: all zero one time in five, else drawn
    from the oracle's pool over QQ or from GF(p) with extra zeros."""
    if data.draw(st.integers(0, 4)) == 0:
        scalar = st.just(f.zero)
    elif isinstance(f, PrimeField):
        scalar = st.one_of(st.just(0), st.integers(0, f.p - 1))
    else:
        scalar = st.sampled_from(RATIONAL_POOL)

    def build(dims):
        if not dims:
            return data.draw(scalar)
        return tuple(build(dims[1:]) for _ in range(dims[0]))

    return build(shape)


def _same(f, got, expected):
    assert got == expected
    assert _canonical(f, got)


field_and_dim = given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())


class TestNativeScalarLoops:
    @settings(max_examples=60, deadline=None)
    @field_and_dim
    def test_vector_ops(self, f, n, data):
        x, y = (hs.Vector(f, _array(data, f, n)) for _ in range(2))
        c = _array(data, f)
        R = range(n)
        _same(f, x.add(y).coords,
              tuple(f.add(x.coords[i], y.coords[i]) for i in R))
        _same(f, x.sub(y).coords,
              tuple(f.sub(x.coords[i], y.coords[i]) for i in R))
        _same(f, x.scale(c).coords, tuple(f.mul(c, a) for a in x.coords))
        assert _canonical(f, (f.dot(x.coords, y.coords),))

    @settings(max_examples=60, deadline=None)
    @field_and_dim
    def test_maps(self, f, n, data):
        m = data.draw(st.integers(1, 4))
        g = hs.LinearMap(f, _array(data, f, m, n))
        h = hs.LinearMap(f, _array(data, f, n, m))
        x = hs.Vector(f, _array(data, f, n))
        _same(f, g.apply(x).coords,
              tuple(_fsum(f, ((g.rows[a][i], x.coords[i]) for i in range(n)))
                    for a in range(m)))
        _same(f, compose(g, h).rows,
              tuple(tuple(_fsum(f, ((g.rows[a][i], h.rows[i][b])
                                    for i in range(n)))
                          for b in range(m)) for a in range(m)))
        _same(f, kron(g, h).rows,
              tuple(tuple(f.mul(g.rows[a][i], h.rows[c][j])
                          for i in range(n) for j in range(m))
                    for a in range(m) for c in range(n)))

    @settings(max_examples=60, deadline=None)
    @field_and_dim
    def test_tensor_squares(self, f, n, data):
        m = data.draw(st.integers(1, 4))
        s, t = (hs.Tensor2(f, _array(data, f, n, m)) for _ in range(2))
        g = hs.LinearMap(f, _array(data, f, m, n))
        h = hs.LinearMap(f, _array(data, f, n, m))
        left = hs.LinearMap(f, _array(data, f, 1, n))
        right = hs.LinearMap(f, _array(data, f, 1, m))
        e, R, C = s.entries, range(n), range(m)
        _same(f, s.add(t).entries,
              tuple(tuple(f.add(e[i][j], t.entries[i][j]) for j in C)
                    for i in R))
        _same(f, s.sub(t).entries,
              tuple(tuple(f.sub(e[i][j], t.entries[i][j]) for j in C)
                    for i in R))
        _same(f, s.map_left(g).entries,
              tuple(tuple(_fsum(f, ((g.rows[a][i], e[i][j]) for i in R))
                          for j in C) for a in C))
        _same(f, s.map_right(h).entries,
              tuple(tuple(_fsum(f, ((h.rows[b][j], e[i][j]) for j in C))
                          for b in R) for i in R))
        _same(f, s.contract_left(left).coords,
              tuple(_fsum(f, ((left.rows[0][i], e[i][j]) for i in R))
                    for j in C))
        _same(f, s.contract_right(right).coords,
              tuple(_fsum(f, ((right.rows[0][j], e[i][j]) for j in C))
                    for i in R))

    @settings(max_examples=60, deadline=None)
    @field_and_dim
    def test_outer_products_and_cubes(self, f, n, data):
        x, y = (hs.Vector(f, _array(data, f, n)) for _ in range(2))
        t = hs.Tensor2(f, _array(data, f, n, n))
        R = range(n)
        _same(f, outer(x, y).entries,
              tuple(tuple(f.mul(x.coords[i], y.coords[j]) for j in R)
                    for i in R))
        vt = outer3_vt(x, t)
        _same(f, vt.entries,
              tuple(tuple(tuple(f.mul(x.coords[i], t.entries[j][k])
                                for k in R) for j in R) for i in R))
        tv = outer3_tv(t, y)
        _same(f, tv.entries,
              tuple(tuple(tuple(f.mul(t.entries[i][j], y.coords[k])
                                for k in R) for j in R) for i in R))
        _same(f, vt.add(tv).entries,
              tuple(tuple(tuple(f.add(vt.entries[i][j][k], tv.entries[i][j][k])
                                for k in R) for j in R) for i in R))
        _same(f, vt.sub(tv).entries,
              tuple(tuple(tuple(f.sub(vt.entries[i][j][k], tv.entries[i][j][k])
                                for k in R) for j in R) for i in R))

    @settings(max_examples=60, deadline=None)
    @field_and_dim
    def test_product_and_coproduct(self, f, n, data):
        p = hs.ProductTensor(f, _array(data, f, n, n, n))
        q = hs.CoproductTensor(f, _array(data, f, n, n, n))
        x, y = (hs.Vector(f, _array(data, f, n)) for _ in range(2))
        a, b = (hs.Tensor2(f, _array(data, f, n, n)) for _ in range(2))
        c, d, R = p.c, q.d, range(n)
        _same(f, apply_bilinear(p, x, y).coords,
              tuple(_fsum(f, ((x.coords[i], y.coords[j], c[i][j][k])
                              for i in R for j in R)) for k in R))
        _same(f, apply_coproduct(q, x).entries,
              tuple(tuple(_fsum(f, ((x.coords[k], d[k][i][j]) for k in R))
                          for j in R) for i in R))
        _same(f, bullet(p, a, b).entries,
              tuple(tuple(_fsum(f, ((a.entries[i][j], b.entries[i2][j2],
                                     c[i][i2][k], c[j][j2][m])
                                    for i in R for j in R
                                    for i2 in R for j2 in R))
                          for m in R) for k in R))

    @settings(max_examples=60, deadline=None)
    @field_and_dim
    def test_cube_contractions(self, f, n, data):
        p = hs.ProductTensor(f, _array(data, f, n, n, n))
        q = hs.CoproductTensor(f, _array(data, f, n, n, n))
        g = hs.LinearMap(f, _array(data, f, n, n))
        t = hs.Tensor3(f, _array(data, f, n, n, n))
        s = hs.Tensor2(f, _array(data, f, n, n))
        c, d, e, G, R = p.c, q.d, t.entries, g.rows, range(n)

        def cube(value):
            return tuple(tuple(tuple(value(i, j, k) for k in R) for j in R)
                         for i in R)

        x = hs.Vector(f, _array(data, f, n))
        _same(f, multiply_leg(p, x, s, 0).entries,
              tuple(tuple(_fsum(f, ((x.coords[i], s.entries[j][m], c[i][j][k])
                                    for i in R for j in R)) for m in R)
                    for k in R))
        _same(f, multiply_leg(p, x, s, 1).entries,
              tuple(tuple(_fsum(f, ((s.entries[i][j], x.coords[k], c[j][k][m])
                                    for j in R for k in R)) for m in R)
                    for i in R))
        _same(f, map_on_leg3(t, g, 0).entries, cube(
            lambda a, j, k: _fsum(f, ((G[a][i], e[i][j][k]) for i in R))))
        _same(f, map_on_leg3(t, g, 1).entries, cube(
            lambda i, b, k: _fsum(f, ((G[b][j], e[i][j][k]) for j in R))))
        _same(f, map_on_leg3(t, g, 2).entries, cube(
            lambda i, j, m: _fsum(f, ((G[m][k], e[i][j][k]) for k in R))))
        _same(f, coproduct_on_left(s, q).entries, cube(
            lambda a, b, k: _fsum(f, ((s.entries[i][k], d[i][a][b])
                                      for i in R))))
        _same(f, coproduct_on_right(s, q).entries, cube(
            lambda i, a, b: _fsum(f, ((s.entries[i][k], d[k][a][b])
                                      for k in R))))


# ---------------------------------------------------------------------------
# over QQ an integral scalar is an int wherever it comes from: documents,
# field operations and the constructions built on them

_SCALARS = {hs.Vector: "coords", hs.LinearMap: "rows",
            hs.ProductTensor: "c", hs.CoproductTensor: "d"}


def _section_scalars(s):
    return tuple(getattr(v, _SCALARS[type(v)])
                 for v in s.section_values().values() if v is not None)


def _fraction_count(value):
    if isinstance(value, tuple):
        return sum(map(_fraction_count, value))
    return type(value) is Fraction


class TestCanonicalRationals:
    def test_field_operations(self):
        half, third = Fraction(1, 2), Fraction(-1, 3)
        for got, want in ((F.coerce("4/2"), 2), (F.coerce(Fraction(6, 3)), 2),
                          (F.coerce("-3/6"), Fraction(-1, 2)),
                          (F.add(half, half), 1), (F.sub(half, half), 0),
                          (F.mul(2, half), 1), (F.mul(third, -3), 1),
                          (F.inv(half), 2), (F.inv(-1), -1),
                          (F.div(3, third), -9), (F.div(1, 3), Fraction(1, 3)),
                          (F.dot((half, 2, third), (2, 0, 3)), 0),
                          (F.reduce(Fraction(-4, 1)), -4)):
            assert got == want
            assert _canonical(F, (got,))
        assert type(F.zero) is int and type(F.one) is int

    def test_fixture_scalars(self):
        seen = 0
        for path in sorted(DATA_DIR.glob("*.json")):
            if path.name == "expected.json":
                continue
            s = documents.document_to_structure(documents.load_path(path))
            assert _canonical(s.field, _section_scalars(s)), path.name
            seen += 1
        for path in sorted((DATA_DIR / "morphisms").glob("*.json")):
            f, _, _ = documents.document_to_morphism(documents.load_path(path))
            assert _canonical(f.field, f.rows), path.name
            seen += 1
        assert seen == 24

    def test_construction_outputs(self, kx3, unital2dim, mu2_table):
        # twists by 1/2 and by 2 make products of non-integral entries
        # that come out integral: 1/2 * 2, 1/2 - 1/2, ...
        shrink = yau_twist("algebra", kx3, lmap([[1, 0, 0], [0, "1/2", 0],
                                                 [0, 0, "1/4"]]))
        grow = yau_twist("algebra", kx3, lmap([[1, 0, 0], [0, 2, 0],
                                               [0, 0, 4]]))
        alpha = lmap([[1, 0], [0, "1/2"]])
        a = hs.HomAlgebra(unital2dim.mu, alpha, vec([1, 0]))
        b = hs.HomAlgebra(mu2_table, alpha, vec([1, 0]))
        outputs = [shrink, tensor_product(shrink, grow),
                   tensor_product(shrink, a), kaplansky_k1(a),
                   kaplansky_k2(a), grow, kaplansky_k1(kx3), kaplansky_k2(kx3)]
        for kind in ASSEMBLY_KINDS:
            out = assemble_two(kind, a, b)
            outputs += out if isinstance(out, tuple) else (out,)
        for s in outputs:
            assert _canonical(F, _section_scalars(s)), s.kind
        # the Fraction branch is exercised: the first five keep a 1/2 or 1/4
        assert all(_fraction_count(_section_scalars(s)) for s in outputs[:5])
        # (x (x) x) . (x (x) x) = x^2/4 (x) 4x^2: the entry 1/4 * 4 is an int
        assert outputs[1].mu.c[4][4][8] == 1

    def test_primitives_give_ints_where_fractions_cancel(self):
        # mat2_twist_conj's product and twist hold 1/2; at even arguments
        # every sum and product of it is integral, so each primitive must
        # give ints, not integral Fractions
        s = documents.document_to_structure(
            documents.load_path(DATA_DIR / "mat2_twist_conj.json"))
        mu, alpha, n = s.mu, s.alpha, s.dim
        assert _fraction_count(mu.c) and _fraction_count(alpha.rows)
        q = hs.CoproductTensor(F, tuple(tuple(tuple(mu.c[i][j][k]
                                                    for j in range(n))
                                              for i in range(n))
                                        for k in range(n)))
        x, y = vec([2, 4, 2, 6]), vec([4, 2, 0, 2])
        half = vec(["1/2", "-3/2", "1/2", "5/2"])
        t = hs.Tensor2(F, ((2, 4, 0, 2),) * n)
        cube = hs.Tensor3(F, (t.entries,) * n)
        bx = Batch(F, (n,), (0,), 2, [x.coords, y.coords])
        by = Batch(F, (n,), (1,), 2, [y.coords, (0, 2, 2, 2)])
        functional = lmap([["1/2", "-1/2", "1/2", "3/2"]])
        values = [
            alpha.apply(x), alpha.apply(bx), apply_bilinear(mu, x, y),
            apply_bilinear(mu, bx, bx), apply_bilinear(mu, bx, by),
            apply_bilinear(mu, by, bx), apply_coproduct(q, x),
            coproduct_on_left(t, q), coproduct_on_right(t, q),
            bullet(mu, t, t), multiply_leg(mu, x, t, 0),
            multiply_leg(mu, x, t, 1), outer(half, x), outer(x, half),
            half.scale(2), half.add(half), half.sub(vec(["-1/2"] * n)),
            t.map_left(alpha), t.map_right(alpha), t.contract_left(functional),
            t.contract_right(functional),
            kron(alpha, lmap([[2 if i == j else 0 for j in range(n)]
                              for i in range(n)])),
            hs.identity_map(F, n).apply(hs.Vector(F, (Fraction(4, 2),) * n)),
        ] + [map_on_leg3(cube, alpha, leg) for leg in range(3)]
        for v in values:
            raw = (v.rows if type(v) is hs.LinearMap else v.coords
                   if type(v) is hs.Vector else tuple(v.entries)
                   if type(v) is Batch else v.entries)
            assert not _fraction_count(raw), v


# ---------------------------------------------------------------------------
# batches: every batch-aware primitive against its plain evaluation at each
# basis tuple

# operand axes of a binary primitive: apart, swapped against argument
# order, sharing an axis, overlapping, and with one operand plain (None)
LAYOUTS = (((0,), (1,)), ((1,), (0,)), ((0,), (0,)), ((0, 2), (1,)),
           ((1,), (0, 2)), ((0, 1), (1, 2)), (None, (0,)), ((1,), None))
layouts = st.sampled_from(LAYOUTS)


def _value(data, f, shape):
    kind = linalg._KINDS[len(shape)]
    return kind(f, _array(data, f, *shape))


def _operand(data, f, axes, k, shape):
    """A batch over ``axes`` with ``k`` basis vectors along each, or with
    ``axes`` None a plain value."""
    if axes is None:
        return _value(data, f, shape)
    return Batch(f, shape, axes, k, [_array(data, f, *shape)
                                     for _ in range(k ** len(axes))])


def _at(v, at):
    """The plain value of ``v`` at the basis tuple ``at`` (position ->
    index); a plain ``v`` holds at every tuple."""
    if type(v) is not Batch:
        return v
    i = 0
    for a in v.axes:
        i = i * v.n + at[a]
    return v.kind(v.field, v.entries[i])


def _agrees(result, fn, *operands):
    """``result`` is a batch over the union of the operands' axes, and at
    each basis tuple it equals ``fn`` on the operands' plain values."""
    batches = [o for o in operands if type(o) is Batch]
    axes = tuple(sorted(set().union(*(b.axes for b in batches))))
    k = batches[0].n
    assert type(result) is Batch
    assert result.axes == axes and result.n == k
    assert len(result.entries) == k ** len(axes)
    for t in itertools.product(range(k), repeat=len(axes)):
        at = dict(zip(axes, t))
        want = fn(*(_at(o, at) for o in operands))
        got = _at(result, at)
        assert type(got) is type(want) and got == want
        assert linalg._shape_of(want) == result.shape
        assert _canonical(result.field, result.entries[0])


batch_case = given(st.sampled_from(FIELDS), st.integers(1, 3),
                   st.integers(1, 3), st.data())


class TestBatches:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 3),
           layouts, st.data())
    def test_apply_bilinear(self, f, n, k, layout, data):
        p = hs.ProductTensor(f, _array(data, f, n, n, n))
        x, y = (_operand(data, f, axes, k, (n,)) for axes in layout)
        _agrees(apply_bilinear(p, x, y),
                lambda u, v: apply_bilinear(p, u, v), x, y)

    @settings(max_examples=30, deadline=None)
    @batch_case
    def test_map_apply(self, f, n, k, data):
        g = hs.LinearMap(f, _array(data, f, data.draw(st.integers(1, 3)), n))
        x = _operand(data, f, (0, 2), k, (n,))
        _agrees(g.apply(x), g.apply, x)

    @settings(max_examples=30, deadline=None)
    @batch_case
    def test_apply_coproduct(self, f, n, k, data):
        q = hs.CoproductTensor(f, _array(data, f, n, n, n))
        x = _operand(data, f, (1,), k, (n,))
        _agrees(apply_coproduct(q, x), lambda u: apply_coproduct(q, u), x)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 2),
           layouts, st.data())
    def test_bullet(self, f, n, k, layout, data):
        p = hs.ProductTensor(f, _array(data, f, n, n, n))
        a, b = (_operand(data, f, axes, k, (n, n)) for axes in layout)
        _agrees(bullet(p, a, b), lambda u, v: bullet(p, u, v), a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 3),
           layouts, st.data())
    def test_outer_products(self, f, n, k, layout, data):
        for shapes in (((n,), (2,)), ((2,), (n,))):
            x, y = (_operand(data, f, axes, k, shape)
                    for axes, shape in zip(layout, shapes))
            _agrees(outer(x, y), outer, x, y)

    @settings(max_examples=30, deadline=None)
    @batch_case
    def test_cube_contractions(self, f, n, k, data):
        p = hs.ProductTensor(f, _array(data, f, n, n, n))
        q = hs.CoproductTensor(f, _array(data, f, n, n, n))
        g = hs.LinearMap(f, _array(data, f, 2, n))
        t = _operand(data, f, (0, 1), k, (n, n, n))
        t2 = _operand(data, f, (2,), k, (n, n))
        x = _operand(data, f, (0,), k, (n,))
        for leg in (0, 1):
            _agrees(multiply_leg(p, x, t2, leg),
                    lambda u, v: multiply_leg(p, u, v, leg), x, t2)
        for leg in (0, 1, 2):
            _agrees(map_on_leg3(t, g, leg), lambda u: map_on_leg3(u, g, leg),
                    t)
        for fn in (coproduct_on_left, coproduct_on_right):
            _agrees(fn(t2, q), lambda u: fn(u, q), t2)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 3),
           layouts, st.data())
    def test_side_methods(self, f, n, k, layout, data):
        # add and sub on a plain value take a batch operand too
        for shape in ((n,), (n, 2), (2, n, 1)):
            x, y = (_operand(data, f, axes, k, shape) for axes in layout)
            _agrees(x.add(y), lambda u, v: u.add(v), x, y)
            _agrees(x.sub(y), lambda u, v: u.sub(v), x, y)
        t = _operand(data, f, layout[0] or layout[1], k, (n, 2))
        g = hs.LinearMap(f, _array(data, f, 3, n))
        h = hs.LinearMap(f, _array(data, f, 1, 2))
        e = hs.LinearMap(f, _array(data, f, 1, n))
        _agrees(t.map_left(g), lambda u: u.map_left(g), t)
        _agrees(t.map_right(h), lambda u: u.map_right(h), t)
        _agrees(t.contract_left(e), lambda u: u.contract_left(e), t)
        _agrees(t.contract_right(h), lambda u: u.contract_right(h), t)

    def test_shared_axis_is_joined(self, hom3dim):
        x = basis_batch(F, 3, 0)
        square = apply_bilinear(hom3dim.mu, x, x)
        assert square.axes == (0,) and len(square.entries) == 3
        assert square.entries[2] == apply_bilinear(
            hom3dim.mu, vec([0, 0, 1]), vec([0, 0, 1])).coords

    def test_keys_follow_argument_position(self, hom3dim):
        # mu(y, x) at the tuple (x, y) = (e1, e3) is mu(e3, e1) = 2 e3
        x, y = basis_batch(F, 3, 0), basis_batch(F, 3, 1)
        swapped = apply_bilinear(hom3dim.mu, y, x)
        assert swapped.axes == (0, 1)
        assert swapped.entries[0 * 3 + 2] == (0, 0, 2)
        assert swapped.entries[2 * 3 + 0] == (0, 0, 2)
        assert swapped.entries[1 * 3 + 2] == (0, 0, 0)

    def test_ragged_entries_refused(self):
        # a hand-built batch whose entries do not nest as its shape, or
        # whose entry count does not match its axes, is refused where it
        # is built instead of giving truncated results
        gf3 = PrimeField(3)
        g = hs.LinearMap(gf3, ((1, 1), (0, 1)))
        with pytest.raises(ShapeError):
            map_on_leg3(Batch(gf3, (2, 2, 2), (0,), 1,
                              [(((1, 2), (0, 1)), ((1, 1),))]), g, 0)
        with pytest.raises(ShapeError):
            Batch(gf3, (2, 2), (0,), 1, [((1, 2), (0,))]).add(
                hs.Tensor2(gf3, ((1, 1), (1, 1))))
        for shape, axes, k, entries in (
                ((2,), (0,), 2, [(1, 2)]),
                ((2,), (0, 1), 2, [(1, 2)] * 2),
                ((2,), (1, 0), 1, [(1, 2)]),
                ((2,), (0,), 1, [(1, 2, 0)]),
                ((2,), (0,), 1, [((1, 2), (0, 1))]),
                ((2,), (0,), 1, [5]),
                ((2, 2), (0,), 1, [(1, 2)]),
                ((), (0,), 1, [()]),
                ((1, 1, 1, 1), (0,), 1, [((((1,),),),)])):
            with pytest.raises(ShapeError):
                Batch(gf3, shape, axes, k, entries)
        # lists nest as well as tuples, and a batch over no axes has one entry
        b = Batch(gf3, [2, 2], [0, 2], 1, [[[1, 2], (0, 1)]])
        assert (b.shape, b.axes) == ((2, 2), (0, 2))
        assert Batch(gf3, (2,), (), 3, [(1, 2)]).add(
            hs.Vector(gf3, (2, 2))) == hs.Vector(gf3, (0, 1))

    def test_basis_batch(self):
        b = basis_batch(F, 3, 1)
        assert (b.axes, b.n, b.shape) == ((1,), 3, (3,))
        assert [b.kind(F, e) for e in b.entries] == [
            hs.basis_vector(F, 3, i) for i in range(3)]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(0, 3),
           st.data())
    def test_mismatches_walk_tuples_in_product_order(self, f, k, arity, data):
        axes = data.draw(st.sampled_from(
            [None] + [c for r in range(1, arity + 1)
                      for c in itertools.combinations(range(arity), r)]))
        lhs = _operand(data, f, axes, k, (2,))
        rhs = _value(data, f, (2,))
        got = list(mismatches(lhs, rhs, arity, k))
        want = []
        for at in itertools.product(range(k), repeat=arity):
            a = _at(lhs, dict(enumerate(at)))
            if a != rhs:
                want.append((at, a, rhs))
        assert got == want

    @pytest.mark.parametrize("f, pool", [
        (F, [c for c in RATIONAL_POOL if c]), (F, range(1, 5)),
        (PrimeField(7), range(1, 7))], ids=["QQ-fractions", "QQ-ints", "GF7"])
    @pytest.mark.parametrize("axes", [(0,), (0, 1)])
    def test_diagonal_bilinear_is_the_plain_product(self, monkeypatch, f,
                                                    pool, axes):
        # batches over the same axes pair their entries one to one: each
        # pair is expanded as the plain path does, with no operator built
        monkeypatch.setattr(linalg, "_operator", None)
        rng, n, k = random.Random(11), 3, 4
        p = hs.ProductTensor(f, tuple(
            tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(n))
            for _ in range(n)))
        x, y = (Batch(f, (n,), axes, k,
                      [tuple(rng.choice(pool) for _ in range(n))
                       for _ in range(k ** len(axes))]) for _ in range(2))
        got = apply_bilinear(p, x, y)
        assert (got.axes, got.n, got.shape) == (axes, k, (n,))
        assert got.entries == [
            apply_bilinear(p, hs.Vector(f, u), hs.Vector(f, v)).coords
            for u, v in zip(x.entries, y.entries)]
        assert (any(type(c) is Fraction for e in got.entries for c in e)
                == any(type(c) is Fraction for c in pool))

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ShapeError):
            list(mismatches(basis_batch(F, 2, 0), vec([1, 0, 0]), 1, 2))
        with pytest.raises(ShapeError):
            basis_batch(F, 2, 0).add(basis_batch(F, 3, 1))
        square = Batch(F, (2, 2), (0,), 2, [((1, 0), (0, 1))] * 2)
        for plain, batch in ((vec([1, 0]), basis_batch(F, 3, 0)),
                             (vec([1, 0]), square),
                             (hs.Tensor2(F, ((1, 0, 0), (0, 1, 0))), square),
                             (hs.Tensor2(F, ((1, 0), (0, 1))),
                              basis_batch(F, 2, 0))):
            for op in (plain.add, plain.sub):
                with pytest.raises(ShapeError):
                    op(batch)


def test_axioms_binds_linalg_own_functions():
    """``perfbench/tracer.py`` rebinds each primitive it times wherever a
    homstruct module binds it, by identity: axioms must bind linalg's own
    function objects under their own names."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.LINALG_FUNCTIONS:
        assert getattr(axioms, name) is getattr(linalg, name), name
    shared = [name for name, value in vars(axioms).items()
              if callable(value) and getattr(linalg, name, None) is not None]
    assert "apply_bilinear" in shared
    for name in shared:
        assert getattr(axioms, name) is getattr(linalg, name), name


# ---------------------------------------------------------------------------
# the factored primitives against their references, repr for repr: the
# factored bullet against the nested loop, the leg product against the
# cube contraction, and an identity map's shortcut against the general path

PARITY_FIELDS = (F, PrimeField(2), PrimeField(3), PrimeField(5))
# plain operands, both along one shared axis, each along its own
PARITY_LAYOUTS = ((None, None), ((0,), (0,)), ((0,), (1,)))
parity_case = pytest.mark.parametrize(
    "f, n, dense", [(f, n, dense) for f in PARITY_FIELDS
                    for n in range(1, 6) for dense in (False, True)],
    ids=lambda v: (v.name if hasattr(v, "name") else
                   ("dense" if v else "sparse") if isinstance(v, bool)
                   else str(v)))


def _scalars(f, rng, dense):
    """A scalar drawer: over QQ the oracle's pool, Fractions included;
    sparse draws are zero four times in five."""
    pool = RATIONAL_POOL if f is F else range(f.p)

    def draw():
        if not dense and rng.random() < 0.8:
            return f.zero
        return rng.choice(pool)

    return draw


def _parity_operand(f, rng, dense, axes, shape, k=2):
    draw = _scalars(f, rng, dense)

    def value():
        if len(shape) == 1:
            return tuple(draw() for _ in range(shape[0]))
        return tuple(tuple(draw() for _ in range(shape[1]))
                     for _ in range(shape[0]))

    if axes is None:
        return linalg._KINDS[len(shape)](f, value())
    return Batch(f, shape, axes, k, [value() for _ in range(k ** len(axes))])


def _parity_product(f, rng, dense, n):
    draw = _scalars(f, rng, dense)
    return hs.ProductTensor(f, tuple(tuple(tuple(draw() for _ in range(n))
                                           for _ in range(n))
                                     for _ in range(n)))


def _matches(result, reference, *operands):
    """``result`` equals ``reference`` on the operands' plain values at
    every index tuple, with the same repr: the same scalars of the same
    types."""
    batches = [o for o in operands if type(o) is Batch]
    if not batches:
        assert repr(result) == repr(reference(*operands))
        return
    axes = tuple(sorted(set().union(*(b.axes for b in batches))))
    k = batches[0].n
    assert type(result) is Batch and result.axes == axes
    for t in itertools.product(range(k), repeat=len(axes)):
        at = dict(zip(axes, t))
        want = reference(*(_at(o, at) for o in operands))
        assert repr(_at(result, at)) == repr(want)


@parity_case
def test_bullet_matches_the_nested_loop(f, n, dense):
    rng = random.Random(f"bullet {f.name} {n} {dense}")
    for _ in range(2):
        p = _parity_product(f, rng, dense, n)
        for layout in PARITY_LAYOUTS:
            a, b = (_parity_operand(f, rng, dense, axes, (n, n))
                    for axes in layout)
            _matches(bullet(p, a, b), lambda u, v: nested_bullet(p, u, v),
                     a, b)


@parity_case
def test_leg_product_matches_the_cube_contraction(f, n, dense):
    rng = random.Random(f"leg {f.name} {n} {dense}")
    for _ in range(2):
        p = _parity_product(f, rng, dense, n)
        for layout in PARITY_LAYOUTS:
            x = _parity_operand(f, rng, dense, layout[0], (n,))
            t = _parity_operand(f, rng, dense, layout[1], (n, n))
            _matches(multiply_leg(p, x, t, 0),
                     lambda u, v: product_on_legs(outer3_vt(u, v), p, (0, 1)),
                     x, t)
            _matches(multiply_leg(p, x, t, 1),
                     lambda u, v: product_on_legs(outer3_tv(v, u), p, (1, 2)),
                     x, t)


def _general(g):
    """An equal map that takes the general path: its identity flag reads
    false."""
    h = hs.LinearMap(g.field, g.rows)
    h.__dict__["_identity"] = False
    return h


@parity_case
def test_identity_map_returns_an_equal_value(f, n, dense):
    rng = random.Random(f"identity {f.name} {n} {dense}")
    g = hs.identity_map(f, n)
    assert g.is_identity() and not _general(g).is_identity()
    h = _general(g)
    for axes in (None, (0,), (0, 1)):
        x = _parity_operand(f, rng, dense, axes, (n,))
        t = _parity_operand(f, rng, dense, axes, (n, n))
        draw = _scalars(f, rng, dense)
        cube = tuple(tuple(tuple(draw() for _ in range(n)) for _ in range(n))
                     for _ in range(n))
        cube = (hs.Tensor3(f, cube) if axes is None else
                Batch(f, (n, n, n), axes, 2, [cube] * 2 ** len(axes)))
        got = [g.apply(x), t.map_left(g), t.map_right(g)]
        want = [h.apply(x), t.map_left(h), t.map_right(h)]
        for leg in range(3):
            got.append(map_on_leg3(cube, g, leg))
            want.append(map_on_leg3(cube, h, leg))
        for a, b in zip(got, want):
            assert type(a) is type(b)
            if type(a) is Batch:
                assert (a.axes, a.n, a.shape) == (b.axes, b.n, b.shape)
                assert repr(a.entries) == repr(b.entries)
            else:
                assert repr(a) == repr(b)
        # a batch comes back itself; its entries are reduced already
        if axes is not None:
            assert got[0] is x and got[1] is t and got[3] is cube


@pytest.mark.parametrize("f, entries", [
    (PrimeField(5), (6, -1, 5, 2)),
    (F, (Fraction(2), Fraction(-3, 1), Fraction(1, 2), 0)),
], ids=["GF5", "QQ"])
def test_identity_map_reduces_a_hand_built_operand(f, entries):
    # scalars outside the canonical form come back reduced, as the general
    # path gives them, on every plain path
    g = hs.identity_map(f, 2)
    h = _general(g)
    a, b, c, d = entries
    x = hs.Vector(f, (a, b))
    t = hs.Tensor2(f, ((a, b), (c, d)))
    cube = hs.Tensor3(f, (((a, b), (c, d)), ((d, c), (b, a))))
    assert repr(g.apply(x)) == repr(h.apply(x))
    assert repr(t.map_left(g)) == repr(t.map_left(h))
    assert repr(t.map_right(g)) == repr(t.map_right(h))
    for leg in range(3):
        assert repr(map_on_leg3(cube, g, leg)) == repr(map_on_leg3(cube, h, leg))
    assert repr(g.apply(x)) != repr(x)


def test_identity_morphism_reduces_a_hand_built_unit():
    # units (6, 0) and (1, 0) over GF(5) are one vector: the identity
    # morphism preserves it, and validate finds that the identity twist
    # moves the unit as written, since it gives (1, 0)
    k = PrimeField(5)
    mu = hs.ProductTensor(k, (((1, 0), (0, 1)), ((0, 1), (0, 0))))
    alpha = hs.identity_map(k, 2)
    a = hs.HomAlgebra(mu, alpha, hs.Vector(k, (6, 0)))
    b = hs.HomAlgebra(mu, alpha, hs.Vector(k, (1, 0)))
    verdict = hs.check_morphism(hs.identity_map(k, 2), a, b)
    assert verdict.passed, verdict.witnesses
    assert [f.code for f in hs.validate(a)] == ["unit-not-fixed",
                                                "unit-not-basis"]


@pytest.mark.parametrize("f", PARITY_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("n", range(1, 6))
def test_identity_map_still_checks_its_operand(f, n):
    g = hs.identity_map(f, n)
    other = PrimeField(7)
    zero = f.zero
    wrong_dim = hs.Vector(f, (zero,) * (n + 1))
    wrong_field = hs.Vector(other, (0,) * n)
    square = hs.Tensor2(f, ((zero,) * n,) * (n + 1))
    tall = hs.Tensor2(f, ((zero,) * (n + 1),) * n)
    cube = hs.Tensor3(f, (((zero,) * n,) * n,) * (n + 1))
    for bad, error in ((wrong_dim, ShapeError),
                       (wrong_field, FieldMismatchError),
                       (Batch(f, (n + 1,), (0,), 1, [wrong_dim.coords]),
                        ShapeError),
                       (Batch(other, (n,), (0,), 1, [wrong_field.coords]),
                        FieldMismatchError)):
        with pytest.raises(error):
            g.apply(bad)
    for bad in (square, Batch(f, (n + 1, n), (0,), 1, [square.entries])):
        with pytest.raises(ShapeError):
            bad.map_left(g)
    for bad in (tall, Batch(f, (n, n + 1), (0,), 1, [tall.entries])):
        with pytest.raises(ShapeError):
            bad.map_right(g)
    for bad in (hs.Tensor2(other, ((0,) * n,) * n),
                Batch(other, (n, n), (0,), 1, [((0,) * n,) * n])):
        with pytest.raises(FieldMismatchError):
            bad.map_left(g)
        with pytest.raises(FieldMismatchError):
            bad.map_right(g)
    with pytest.raises(ShapeError):
        map_on_leg3(cube, g, 0)
    with pytest.raises(ShapeError):
        map_on_leg3(hs.Tensor2(f, ((zero,) * n,) * n), g, 0)
    with pytest.raises(FieldMismatchError):
        map_on_leg3(hs.Tensor3(other, (((0,) * n,) * n,) * n), g, 1)


# ---------------------------------------------------------------------------
# the infinitesimal identity against its cube form. The per-tuple reference
# in test_evaluator.py calls the suite's own closures, so it cannot catch a
# wrong formula; here the closure as it read over V (x) V (x) V cubes is
# evaluated on plain vectors at every tuple and compared with the suite's
# batched sides

def cube_infinitesimal(mu, delta, alpha):
    def inf(x, y):
        lhs = apply_coproduct(delta, apply_bilinear(mu, x, y))
        ax, ay = alpha.apply(x), alpha.apply(y)
        first = product_on_legs(outer3_vt(ax, apply_coproduct(delta, y)),
                                mu, (0, 1)).map_right(alpha)
        second = product_on_legs(outer3_tv(apply_coproduct(delta, x), ay),
                                 mu, (1, 2)).map_left(alpha)
        third = outer(alpha.apply(ax), ay)
        return lhs, first.add(second).sub(third)
    return inf


def _infinitesimal_cases():
    """Every corpus hom-bialgebra; the K1 and K2 extensions of the unital
    corpus algebras, and of each unital algebra that a corpus algebra
    twists, with that twist in place of its own (a twist other than the
    identity); and each extension again with a seeded random twist."""
    from homstruct import corpus
    table = corpus.load_expected()
    resolved = {}
    for entry in table["entries"]:
        resolved[entry["name"]] = (
            corpus.load_fixture(entry["fixture"]) if "fixture" in entry
            else corpus._derive(entry["derive"], resolved))
    cases = [(name, s) for name, s in resolved.items()
             if isinstance(s, hs.HomBialgebra)]
    unital = {name: a for name, a in resolved.items()
              if isinstance(a, hs.HomAlgebra) and a.unit is not None}
    inputs = dict(unital)
    for name, a in resolved.items():
        base = name.split("_twist")[0]
        if ("_twist" in name and isinstance(a, hs.HomAlgebra)
                and base in unital):
            b = unital[base]
            inputs[f"{base} with the twist of {name}"] = hs.HomAlgebra(
                b.mu, a.alpha, b.unit)
    rng = random.Random(17)
    for name, a in inputs.items():
        for build in (kaplansky_k1, kaplansky_k2):
            try:
                ext = build(a, allow_ineligible=True)
            except hs.errors.NotEligibleError:
                continue
            label = f"{build.__name__}({name})"
            cases.append((label, ext))
            f, m = ext.field, ext.dim
            alpha = hs.LinearMap(f, tuple(tuple(rng.choice(RATIONAL_POOL)
                                                for _ in range(m))
                                          for _ in range(m)))
            cases.append((label + " random twist",
                          dataclasses.replace(ext, alpha=alpha)))
    return cases


INFINITESIMAL_CASES = _infinitesimal_cases()


def test_infinitesimal_cases_reach_the_general_path():
    twists = [s.alpha.is_identity() for _, s in INFINITESIMAL_CASES]
    assert any(twists) and not all(twists)
    # an extension whose own twist is not the identity
    assert any(not s.alpha.is_identity() for label, s in INFINITESIMAL_CASES
               if label.startswith("kaplansky") and "random" not in label)


@pytest.mark.parametrize("label, s", INFINITESIMAL_CASES,
                         ids=[label for label, _ in INFINITESIMAL_CASES])
def test_infinitesimal_matches_its_cube_form(label, s):
    (test,) = [t for t in axioms.suite_for("infinitesimal", s)
               if t.axiom == "infinitesimal"]
    reference = cube_infinitesimal(s.mu, s.delta, s.alpha)
    f, n = s.field, s.dim
    rng = random.Random(label)

    def sample(axis, k):
        return Batch(f, (n,), (axis,), k,
                     [tuple(rng.choice(RATIONAL_POOL) for _ in range(n))
                      for _ in range(k)])

    for x, y in ((basis_batch(f, n, 0), basis_batch(f, n, 1)),
                 (sample(0, 6), sample(0, 6)),
                 (sample(0, 2), sample(1, 2))):
        lhs, rhs = test.evaluate(x, y)
        _matches(lhs, lambda u, v: reference(u, v)[0], x, y)
        _matches(rhs, lambda u, v: reference(u, v)[1], x, y)


@pytest.mark.parametrize("f", PARITY_FIELDS, ids=lambda f: f.name)
def test_identity_flag_reads_every_entry(f):
    # one entry off the identity, anywhere, and the map takes the general
    # path
    for n in range(1, 4):
        x = hs.Vector(f, tuple(f.coerce(i + 1) for i in range(n)))
        for i, j in itertools.product(range(n), repeat=2):
            rows = [[f.one if a == b else f.zero for b in range(n)]
                    for a in range(n)]
            rows[i][j] = f.add(rows[i][j], f.one)
            g = hs.LinearMap(f, rows)
            assert not g.is_identity()
            assert g.apply(x) is not x
            assert g.apply(x) == _general(g).apply(x)
    assert not hs.LinearMap(f, ((f.one, f.zero),)).is_identity()
