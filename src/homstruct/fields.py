"""Exact scalar arithmetic: rationals and prime fields.

Every value in this package is a scalar from one of two field types:

* ``RationalField`` -- exact rationals. A scalar is a Python ``int``
  when its value is integral and a ``fractions.Fraction`` (reduced,
  positive denominator) only when its denominator exceeds 1, so each
  value has exactly one representation;
* ``PrimeField(p)`` -- integers mod a prime ``p``, stored as residues
  in ``[0, p)``.

No floating point is accepted anywhere: equality of scalars must be
decidable and exact, because axiom checking is equation testing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import countOf, mul

from .errors import FieldError, FieldMismatchError, ScalarParseError

_RATIONAL_LITERAL = re.compile(r"^[+-]?\d+(/\d+)?$")


# Miller-Rabin with the first 13 primes as bases is exact for every
# n < 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality for ``n < MODULUS_LIMIT``: trial division by the
    small primes decides every n < 43^2 (the moduli the search and the
    classifier use), deterministic Miller-Rabin the rest."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n >= MODULUS_LIMIT:
        raise FieldError(f"modulus {n} is beyond the exact primality bound "
                         f"{MODULUS_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of exact rationals.

    A scalar is an ``int`` when it is integral and a ``Fraction`` with
    denominator > 1 otherwise. Integral values dominate the paper's
    constructions, and native int arithmetic is much cheaper than
    ``Fraction`` arithmetic. ``reduce`` maps any sum or product of
    scalars (an ``int`` or a ``Fraction``) to this form, ``reduce_row``
    a row of them, and every operation below returns reduced values.
    """

    name = "rational"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"

    zero = 0
    one = 1

    def coerce(self, value):
        """Turn an int, Fraction or exact literal string into a scalar."""
        if isinstance(value, bool):
            raise ScalarParseError(f"not a rational scalar: {value!r}")
        if isinstance(value, int):
            return int(value)
        if isinstance(value, Fraction):
            return self.reduce(value)
        if isinstance(value, str):
            text = value.strip()
            if not _RATIONAL_LITERAL.match(text):
                raise ScalarParseError(f"bad rational literal {value!r}; "
                                       "use an integer or p/q")
            try:
                return self.reduce(Fraction(text))
            except ZeroDivisionError as exc:
                raise ScalarParseError(f"bad rational literal {value!r}") from exc
        if isinstance(value, float):
            raise ScalarParseError("floating point scalars are not allowed")
        raise ScalarParseError(f"not a rational scalar: {value!r}")

    def add(self, a, b):
        return self.reduce(a + b)

    def sub(self, a, b):
        return self.reduce(a - b)

    def mul(self, a, b):
        return self.reduce(a * b)

    def neg(self, a):
        return -a

    def reduce(self, a):
        """The canonical scalar of one sum or product of scalars: the
        numerator of an integral ``Fraction``, anything else as it is."""
        if type(a) is int:
            return a
        return a.numerator if a.denominator == 1 else a

    def reduce_row(self, row):
        """``reduce`` over a list or tuple, as a tuple. A row of ints is
        returned as it is, after one C-level count of their types."""
        if countOf(map(type, row), int) == len(row):
            return tuple(row)
        red = self.reduce
        return tuple([v if type(v) is int else red(v) for v in row])

    def dot(self, xs, ys):
        """sum_i xs[i] * ys[i], skipping zero factors, reduced once."""
        acc = 0
        for a, b in zip(xs, ys):
            if a and b:
                acc += a * b
        return self.reduce(acc)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.reduce(1 / Fraction(a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a) -> str:
        return str(a)


class PrimeField:
    """The field of integers modulo a prime. Scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.name = f"gf:{p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, bool):
            raise ScalarParseError(f"not a residue: {value!r}")
        if isinstance(value, str):
            try:
                value = int(value.strip())
            except ValueError as exc:
                raise ScalarParseError(f"bad residue literal {value!r}") from exc
        if isinstance(value, Fraction):
            if value.denominator != 1:
                return self.div(value.numerator % self.p,
                                value.denominator % self.p)
            value = value.numerator
        if isinstance(value, float):
            raise ScalarParseError("floating point scalars are not allowed")
        if not isinstance(value, int):
            raise ScalarParseError(f"not a residue: {value!r}")
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def reduce(self, a):
        """The residue of one unreduced sum or product of residues."""
        return a % self.p

    def reduce_row(self, row):
        """``reduce`` over a list or tuple, as a tuple."""
        p = self.p
        return tuple([v % p for v in row])

    def dot(self, xs, ys):
        """sum_i xs[i] * ys[i] mod p, reduced once."""
        return sum(map(mul, xs, ys)) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a) -> str:
        return str(a % self.p)


QQ = RationalField()


def parse_field(descriptor: str):
    """Map a field descriptor (``"rational"`` or ``"gf:p"``) to a field."""
    if descriptor == "rational":
        return QQ
    if descriptor.startswith("gf:"):
        try:
            p = int(descriptor[3:])
        except ValueError as exc:
            raise FieldError(f"bad field descriptor {descriptor!r}") from exc
        return PrimeField(p)
    raise FieldError(f"bad field descriptor {descriptor!r}")


def require_same_field(*fields):
    """Raise FieldMismatchError unless all arguments are one field."""
    first = fields[0]
    for f in fields[1:]:
        if f is not first and f != first:
            raise FieldMismatchError(f"mixed field modes: {first.name} vs {f.name}")
    return first
