import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homstruct import fields
from homstruct.errors import FieldError, FieldMismatchError, ScalarParseError
from homstruct.fields import (PrimeField, QQ, RationalField, parse_field,
                              require_same_field)


class TestRationals:
    def test_canonical_form(self):
        assert QQ.coerce("2/4") == Fraction(1, 2)
        assert QQ.coerce("-6/4") == Fraction(-3, 2)
        assert QQ.coerce("2/4").denominator == 2

    def test_parse_rejects_floats(self):
        with pytest.raises(ScalarParseError):
            QQ.coerce(0.5)
        with pytest.raises(ScalarParseError):
            QQ.coerce("0.5e3")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ScalarParseError):
            QQ.coerce("1/0")
        with pytest.raises(ScalarParseError):
            QQ.coerce("x")

    def test_format_round_trip(self):
        for lit in ("0", "7", "-3", "1/2", "-11/13"):
            assert QQ.format(QQ.coerce(lit)) == lit

    @given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
    def test_add_sub_cancel(self, r, s):
        assert QQ.sub(QQ.add(r, s), s) == r

    @given(st.fractions(max_denominator=50).filter(lambda r: r != 0))
    def test_mul_inverse(self, r):
        assert QQ.mul(r, QQ.inv(r)) == QQ.one


class TestPrimeField:
    def test_rejects_composite_modulus(self):
        for bad in (0, 1, 4, 9, 91):
            with pytest.raises(FieldError):
                PrimeField(bad)

    def test_arithmetic_closed(self):
        gf = PrimeField(5)
        assert gf.add(3, 4) == 2
        assert gf.mul(3, 4) == 2
        assert gf.neg(2) == 3
        assert gf.sub(1, 3) == 3

    def test_every_nonzero_invertible(self):
        gf = PrimeField(7)
        for a in range(1, 7):
            assert gf.mul(a, gf.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            gf.inv(0)

    def test_primality_agrees_with_trial_division(self):
        def reference(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in (*range(-2, 20000), *range(2 ** 31 - 2000, 2 ** 31)):
            assert fields._is_prime(n) == reference(n), n

    @pytest.mark.parametrize("n, prime", [
        (2 ** 31 - 1, True),
        (2 ** 61 - 1, True),
        (10 ** 18 + 3, True),
        # strong pseudoprimes to the prime bases up to 23 and up to 37
        (149491 * 747451 * 34233211, False),
        (399165290221 * 798330580441, False),
    ])
    def test_large_moduli_decided_exactly(self, n, prime):
        assert fields._is_prime(n) is prime

    def test_moduli_beyond_the_exact_bound_refused(self):
        # the least strong pseudoprime to all 13 bases is the bound itself
        assert fields.MODULUS_LIMIT == 1287836182261 * 2575672364521
        for n in (fields.MODULUS_LIMIT, 10 ** 30 + 57):
            with pytest.raises(FieldError):
                PrimeField(n)

    def test_coerce_reduces_and_parses(self):
        gf = PrimeField(3)
        assert gf.coerce(5) == 2
        assert gf.coerce("-1") == 2
        assert gf.coerce(Fraction(1, 2)) == 2  # 1 * inverse(2) mod 3
        with pytest.raises(ScalarParseError):
            gf.coerce(1.0)


def test_parse_field_descriptors():
    assert parse_field("rational") == QQ
    assert parse_field("gf:5") == PrimeField(5)
    for bad in ("gf:6", "gf:x", "real", ""):
        with pytest.raises(FieldError):
            parse_field(bad)


def test_field_equality_and_mixing():
    assert RationalField() == QQ
    assert PrimeField(3) == PrimeField(3)
    assert PrimeField(3) != PrimeField(5)
    assert require_same_field(QQ, QQ) == QQ
    with pytest.raises(FieldMismatchError):
        require_same_field(QQ, PrimeField(2))


# a row's canonical scalars are the scalars' own: reduce_row is reduce over
# the row, in value and in type, for ints, integral and proper fractions and
# residues outside [0, p), alone and mixed
BIG = 2 ** 64 + 3
ROWS = (
    (), (0,), (0, 0, 0), (-5, 0, 7), (BIG, -BIG, 2 ** 100),
    (Fraction(4, 1),), (Fraction(0),), (Fraction(-6, 3), Fraction(0), 1),
    (Fraction(1, 2), Fraction(-7, 3)), (3, Fraction(1, 2), -BIG, 0),
    (Fraction(BIG, 1), 5, Fraction(2, 4), Fraction(-8, 2)),
    (-1, -7, 11, 22, BIG, -BIG, 4, 5, 6, 7),
)


@pytest.mark.parametrize("f", [QQ, PrimeField(2), PrimeField(5),
                               PrimeField(7)], ids=lambda f: f.name)
@pytest.mark.parametrize("row", ROWS, ids=repr)
def test_reduce_row_is_reduce_over_the_row(f, row):
    if f is not QQ:
        # GF(p) reduces unreduced sums and products of residues: ints
        row = tuple(v if isinstance(v, int) else v.numerator for v in row)
    want = tuple(map(f.reduce, row))
    for given_row in (row, list(row)):
        got = f.reduce_row(given_row)
        assert type(got) is tuple
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
    if f is not QQ:
        assert all(0 <= v < f.p for v in want)
