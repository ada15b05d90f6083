"""Tagged records for every algebraic species handled by the toolkit,
the nesting of each section type, and structural validation.

``SECTION_FORMS`` is the one place a section type's nesting is written.
Documents and search pins read sections against it with ``read_nested``,
``validate`` checks shapes against it, and documents and reports write
nested entries with ``write_nested``.

Validation is purely structural: shapes, uniform field mode, and the
declared unit really acting as a two-sided unit. Axiom checking lives in
:mod:`homstruct.axioms`. Findings carry a severity so that advisory
conditions (for example a twist map that does not fix the unit, which
blocks the unit-adjoining constructions but is otherwise legal) surface
as warnings rather than defects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Optional

from .errors import MissingMapError, ScalarParseError, ShapeError
from .fields import require_same_field
from .linalg import (CoproductTensor, LinearMap, ProductTensor, Vector,
                     apply_bilinear, basis_batch, tensors_equal)

# What each generic document section holds. The product, coproduct and
# counit sections are what ``products()``, ``coproducts()`` and ``counits()``
# return.
SECTION_TYPES = {
    "mu": "product", "mu2": "product", "nabla1": "product",
    "nabla2": "product",
    "delta": "coproduct", "delta2": "coproduct",
    "counit": "counit", "counit2": "counit",
    "alpha": "matrix", "d": "matrix",
    "unit": "vector",
}

# section type -> (value class, the attribute holding its entries as
# nested tuples, the shape of those entries at dimension n); the class
# is built as ``cls(field, entries)``
SECTION_FORMS = {
    "product": (ProductTensor, "c", lambda n: (n, n, n)),
    "coproduct": (CoproductTensor, "d", lambda n: (n, n, n)),
    "counit": (LinearMap, "rows", lambda n: (1, n)),
    "matrix": (LinearMap, "rows", lambda n: (n, n)),
    "vector": (Vector, "coords", lambda n: (n,)),
}


def read_nested(array, shape, leaf, what, depth=0):
    """``array`` as nested tuples with ``leaf`` applied to each entry,
    in row-major order. ShapeError, naming ``what``, unless ``array`` is a
    nested list of exactly ``shape`` (from level ``depth`` on): a list
    where an entry belongs, or an entry where a list belongs, is refused.
    A ScalarParseError from ``leaf`` is raised again naming ``what``."""
    nested = isinstance(array, (list, tuple))
    if depth == len(shape) and not nested:
        try:
            return leaf(array)
        except ScalarParseError as exc:
            raise ScalarParseError(f"{what}: {exc}") from exc
    if depth < len(shape) and nested and len(array) == shape[depth]:
        return tuple([read_nested(x, shape, leaf, what, depth + 1)
                      for x in array])
    raise ShapeError(f"{what} must be a {'x'.join(map(str, shape))} "
                     f"nested list")


def write_nested(entries, leaf):
    """Nested tuples as nested lists, with ``leaf`` applied to each entry."""
    if isinstance(entries, tuple):
        return [write_nested(x, leaf) for x in entries]
    return leaf(entries)


class Record:
    """Base of the structure records.

    ``SECTIONS`` maps each generic document section a record carries to
    the attribute holding it, in canonical write order: ``mu``/``mu2``
    hold whichever products the kind carries (the two bar products of a
    dialgebra, a Leibniz bracket, ...), ``delta``/``delta2`` the
    comultiplications, ``nabla1``/``nabla2`` the affine maps. ``dim``,
    ``field`` and the three section accessors are derived from it (``dim``
    and ``field`` from the first product, or the first coproduct when
    there is none). The accessors are keyed by attribute name and leave
    out sections holding None. Records are immutable, so each derived
    value is computed once and the accessors return read-only mappings.
    """

    SECTIONS = {}

    @classmethod
    def from_sections(cls, kind, values):
        """The ``kind`` record holding ``values`` (generic section name ->
        value; a section left out is None)."""
        return cls(**cls._attributes(values))

    @classmethod
    def _attributes(cls, values):
        return {attr: values.get(section)
                for section, attr in cls.SECTIONS.items()}

    def section_values(self) -> dict:
        """Generic section name -> value, None where a section is absent."""
        return {section: getattr(self, attr)
                for section, attr in self.SECTIONS.items()}

    @cached_property
    def dim(self):
        return self._first_tensor.dim

    @cached_property
    def field(self):
        return self._first_tensor.field

    @property
    def _first_tensor(self):
        return (*self.products().values(), *self.coproducts().values())[0]

    @cached_property
    def _sections(self):
        held = {"product": {}, "coproduct": {}, "counit": {}}
        for section, attr in self.SECTIONS.items():
            value = getattr(self, attr)
            if SECTION_TYPES[section] in held and value is not None:
                held[SECTION_TYPES[section]][attr] = value
        return tuple(MappingProxyType(m) for m in held.values())

    def products(self):
        return self._sections[0]

    def coproducts(self):
        return self._sections[1]

    def counits(self):
        return self._sections[2]


@dataclass(frozen=True)
class HomAlgebra(Record):
    mu: ProductTensor
    alpha: LinearMap
    unit: Optional[Vector] = None

    kind = "hom-algebra"
    SECTIONS = {"mu": "mu", "alpha": "alpha", "unit": "unit"}


@dataclass(frozen=True)
class HomCoalgebra(Record):
    delta: CoproductTensor
    alpha: LinearMap
    counit: Optional[LinearMap] = None

    kind = "hom-coalgebra"
    unit = None
    SECTIONS = {"delta": "delta", "alpha": "alpha", "counit": "counit"}


@dataclass(frozen=True)
class HomBialgebra(Record):
    mu: ProductTensor
    unit: Vector
    delta: CoproductTensor
    counit: LinearMap
    alpha: LinearMap

    kind = "hom-bialgebra"
    SECTIONS = {"mu": "mu", "unit": "unit", "delta": "delta",
                "counit": "counit", "alpha": "alpha"}

    def algebra(self) -> HomAlgebra:
        return HomAlgebra(self.mu, self.alpha, self.unit)

    def coalgebra(self) -> HomCoalgebra:
        return HomCoalgebra(self.delta, self.alpha, self.counit)


@dataclass(frozen=True)
class TwoHomStructure(Record):
    """One space carrying two products (and possibly two coproducts).

    The four variants share the product pair and the twist; which
    coalgebra maps must be present depends on the variant. Bialgebra
    views (mu_i with delta_j) are materialized on demand via
    :meth:`view`, never stored.
    """

    variant: str
    mu1: ProductTensor
    mu2: ProductTensor
    alpha: LinearMap
    unit: Optional[Vector] = None
    delta1: Optional[CoproductTensor] = None
    delta2: Optional[CoproductTensor] = None
    counit1: Optional[LinearMap] = None
    counit2: Optional[LinearMap] = None

    SECTIONS = {"mu": "mu1", "mu2": "mu2", "unit": "unit",
                "delta": "delta1", "delta2": "delta2", "counit": "counit1",
                "counit2": "counit2", "alpha": "alpha"}

    @property
    def kind(self):
        return self.variant

    @classmethod
    def from_sections(cls, kind, values):
        return cls(kind, **cls._attributes(values))

    def view(self, which_mu: int, which_delta: int) -> HomBialgebra:
        """The bialgebra view (mu_i, delta_j, counit_j)."""
        mu = self.mu1 if which_mu == 1 else self.mu2
        delta = self.delta1 if which_delta == 1 else self.delta2
        counit = self.counit1 if which_delta == 1 else self.counit2
        if self.unit is None or delta is None or counit is None:
            raise MissingMapError(
                f"view ({which_mu}, {which_delta}) needs a unit, a "
                f"comultiplication and a counit")
        return HomBialgebra(mu, self.unit, delta, counit, self.alpha)


@dataclass(frozen=True)
class HomDialgebra(Record):
    left: ProductTensor
    right: ProductTensor
    alpha: LinearMap

    kind = "hom-dialgebra"
    unit = None
    SECTIONS = {"mu": "left", "mu2": "right", "alpha": "alpha"}


@dataclass(frozen=True)
class DifferentialHomAlgebra(Record):
    algebra: HomAlgebra
    d: LinearMap

    kind = "differential-hom-algebra"
    SECTIONS = {"mu": "mu", "alpha": "alpha", "d": "d", "unit": "unit"}

    @classmethod
    def from_sections(cls, kind, values):
        return cls(HomAlgebra.from_sections("hom-algebra", values),
                   values.get("d"))

    @property
    def mu(self):
        return self.algebra.mu

    @property
    def alpha(self):
        return self.algebra.alpha

    @property
    def unit(self):
        return self.algebra.unit


@dataclass(frozen=True)
class HomLeibniz(Record):
    bracket: ProductTensor
    alpha: LinearMap

    kind = "hom-leibniz"
    unit = None
    SECTIONS = {"mu": "bracket", "alpha": "alpha"}


@dataclass(frozen=True)
class HomPreLie(Record):
    product: ProductTensor
    alpha: LinearMap

    kind = "hom-prelie"
    unit = None
    SECTIONS = {"mu": "product", "alpha": "alpha"}


@dataclass(frozen=True)
class HLSDA(Record):
    """Hom-left-symmetric dialgebra: two products, four twisted identities."""

    left: ProductTensor
    right: ProductTensor
    alpha: LinearMap

    kind = "hlsda"
    unit = None
    SECTIONS = {"mu": "left", "mu2": "right", "alpha": "alpha"}


@dataclass(frozen=True)
class AffineStructure(Record):
    """A pair of bilinear maps compatible with a hom-Leibniz bracket."""

    nabla1: ProductTensor
    nabla2: ProductTensor
    leibniz: HomLeibniz

    kind = "affine-hom-leibniz"
    unit = None
    SECTIONS = {"nabla1": "nabla1", "nabla2": "nabla2", "mu": "bracket",
                "alpha": "alpha"}

    @classmethod
    def from_sections(cls, kind, values):
        return cls(values.get("nabla1"), values.get("nabla2"),
                   HomLeibniz.from_sections("hom-leibniz", values))

    @property
    def alpha(self):
        return self.leibniz.alpha

    @property
    def bracket(self):
        return self.leibniz.bracket


# kind -> (record, required sections, optional sections), sections in
# canonical write order. A new structure kind is declared here and by its
# record's SECTIONS.
KINDS = {
    "hom-algebra": (HomAlgebra, ("mu", "alpha"), ("unit",)),
    "hom-coalgebra": (HomCoalgebra, ("delta", "alpha"), ("counit",)),
    "hom-bialgebra": (HomBialgebra,
                      ("mu", "unit", "delta", "counit", "alpha"), ()),
    "2-hom-assoc-algebra": (TwoHomStructure, ("mu", "mu2", "alpha"),
                            ("unit",)),
    "2-hom-assoc-bialgebra": (TwoHomStructure,
                              ("mu", "mu2", "unit", "delta", "counit",
                               "alpha"), ()),
    "2-hom-bialgebra": (TwoHomStructure,
                        ("mu", "mu2", "unit", "delta", "delta2", "counit",
                         "counit2", "alpha"), ()),
    "2-2-hom-bialgebra": (TwoHomStructure,
                          ("mu", "mu2", "unit", "delta", "delta2", "counit",
                           "counit2", "alpha"), ()),
    "hom-dialgebra": (HomDialgebra, ("mu", "mu2", "alpha"), ()),
    "differential-hom-algebra": (DifferentialHomAlgebra,
                                 ("mu", "alpha", "d"), ("unit",)),
    "hom-leibniz": (HomLeibniz, ("mu", "alpha"), ()),
    "hom-prelie": (HomPreLie, ("mu", "alpha"), ()),
    "hlsda": (HLSDA, ("mu", "mu2", "alpha"), ()),
    "affine-hom-leibniz": (AffineStructure,
                           ("nabla1", "nabla2", "mu", "alpha"), ()),
}

TWO_HOM_VARIANTS = tuple(kind for kind, (record, _, _) in KINDS.items()
                         if record is TwoHomStructure)


@dataclass(frozen=True)
class Morphism:
    """A linear map between two structures of the same kind."""

    f: LinearMap
    src: object
    dst: object


@dataclass(frozen=True)
class Finding:
    code: str
    severity: str  # "defect" | "warning"
    message: str

    def __str__(self):
        return f"[{self.severity}] {self.code}: {self.message}"


def validate(s) -> list:
    """Structural audit. Returns all findings; defects mean the structure
    is unusable, warnings record advisory conditions. Pure and idempotent."""
    findings = []
    try:
        n = s.dim
    except (AttributeError, IndexError):
        return [Finding("shape", "defect", "structure has no coherent dimension")]

    fields = []
    for section, value in s.section_values().items():
        if value is None:
            continue
        name = s.SECTIONS[section]
        fields.append(value.field)
        _, attr, shape_at = SECTION_FORMS[SECTION_TYPES[section]]
        entries, shape, expected = getattr(value, attr), [], shape_at(n)
        for _ in expected:  # the value classes refuse ragged entries
            shape.append(len(entries))
            entries = entries[0] if entries else ()
        if tuple(shape) != expected:
            findings.append(Finding(
                "shape", "defect", f"{name} is {'x'.join(map(str, shape))}, "
                f"expected {'x'.join(map(str, expected))}"))
    try:
        require_same_field(*fields)
    except Exception:
        modes = sorted({f.name for f in fields})
        findings.append(Finding("field-mode", "defect",
                                f"mixed field modes: {', '.join(modes)}"))

    if isinstance(s, TwoHomStructure):
        findings.extend(_validate_variant(s))

    if any(f.severity == "defect" for f in findings):
        return findings  # shape problems make the unit check meaningless

    unit = getattr(s, "unit", None)
    if unit is not None:
        findings.extend(_validate_unit(s, unit))
    return findings


def _validate_variant(s: TwoHomStructure):
    if s.variant not in TWO_HOM_VARIANTS:
        return [Finding("variant", "defect", f"unknown variant {s.variant!r}")]
    values = s.section_values()
    return [Finding("missing-map", "defect",
                    f"variant {s.variant} requires {s.SECTIONS[section]}")
            for section in KINDS[s.variant][1] if values[section] is None]


def _validate_unit(s, unit: Vector):
    """Check the declared unit on the basis (enough, by bilinearity), each
    side of each product in one call over the batch of basis vectors."""
    out = []
    f = s.field
    basis = basis_batch(f, s.dim, 0)
    for name, p in s.products().items():
        left = apply_bilinear(p, unit, basis).entries
        right = apply_bilinear(p, basis, unit).entries
        for i, e in enumerate(basis.entries):
            for args, value in ((f"unit, e{i + 1}", left[i]),
                                (f"e{i + 1}, unit", right[i])):
                if value != e:
                    coords = ", ".join(map(f.format, value))
                    out.append(Finding("unit", "defect",
                                       f"{name}({args}) = ({coords}), "
                                       f"expected e{i + 1}"))
    if not out:
        alpha_u = s.alpha.apply(unit)
        if not tensors_equal(alpha_u, unit):
            out.append(Finding("unit-not-fixed", "warning",
                               "twist does not fix the unit; structure is not "
                               "eligible for the unit-adjoining constructions"))
        if not _is_basis_vector(unit):
            out.append(Finding("unit-not-basis", "warning",
                               "unit is not a basis vector; the second "
                               "unit-adjoining construction needs one"))
    return out


def _is_basis_vector(v: Vector) -> bool:
    one, zero = v.field.one, v.field.zero
    return (sum(1 for c in v.coords if c == one) == 1
            and all(c in (one, zero) for c in v.coords))


def unit_basis_index(s) -> Optional[int]:
    """Index of the unit if it is a basis vector, else None."""
    unit = getattr(s, "unit", None)
    if unit is None or not _is_basis_vector(unit):
        return None
    return next(i for i, c in enumerate(unit.coords) if c == unit.field.one)


def is_valid(s) -> bool:
    return not any(f.severity == "defect" for f in validate(s))


def is_unit_extension_eligible(s) -> bool:
    """True when the structure is unital and its twist fixes the unit."""
    unit = getattr(s, "unit", None)
    if unit is None:
        return False
    return tensors_equal(s.alpha.apply(unit), unit)


def unit_vector(s) -> Vector:
    """The stored unit eta(1); raises if the structure declares none."""
    unit = getattr(s, "unit", None)
    if unit is None:
        raise MissingMapError(f"{s.kind} structure declares no unit")
    return unit


def counit_map(s) -> LinearMap:
    """The stored counit; raises if the structure declares none."""
    counits = s.counits()
    if not counits:
        raise MissingMapError(f"{s.kind} structure declares no counit")
    if "counit" in counits:
        return counits["counit"]
    return counits[sorted(counits)[0]]
