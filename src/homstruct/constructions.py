"""Executable constructions: composition twists, unit-adjoining bialgebra
extensions, assemblies of two-product structures, tensor products,
opposites, and the derived dialgebras and brackets.

Each construction validates its preconditions, then produces a
first-class structure ready for the checkers in :mod:`homstruct.axioms`.
Identical inputs always yield identical outputs.
"""

from __future__ import annotations

from .axioms import check_morphism, coerce_for_check, run_check
from .errors import (ConstructionError, InvalidStructureError,
                     MissingMapError, NotEligibleError, ShapeError)
from .fields import require_same_field
from .linalg import (CoproductTensor, LinearMap, ProductTensor, Vector,
                     apply_bilinear, basis_vector, kron,
                     product_from_basis_values, tensors_equal)
from .structures import (SECTION_TYPES, AffineStructure, HLSDA, HomAlgebra,
                         HomBialgebra, HomCoalgebra, HomDialgebra,
                         DifferentialHomAlgebra, HomLeibniz, TwoHomStructure,
                         is_unit_extension_eligible, unit_basis_index,
                         validate)

BRACKET_VARIANTS = ("aligned", "loday")

ASSEMBLY_KINDS = ("2-assoc-bialgebra-B1", "2-bialgebras-B1B2", "2-2-bialgebra")
# the one assembly kind that returns a pair of structures
PAIR_ASSEMBLY = "2-bialgebras-B1B2"

# twist kind -> kind of the structure it takes and returns
TWIST_KINDS = {
    "algebra": "hom-algebra",
    "2-assoc-algebra": "2-hom-assoc-algebra",
    "dialgebra": "hom-dialgebra",
    "leibniz": "hom-leibniz",
    "hlsda": "hlsda",
}


def _require_valid(s, what="input"):
    findings = [f for f in validate(s) if f.severity == "defect"]
    if findings:
        raise InvalidStructureError(f"{what} fails validation", findings)


def _twist_tensor(p: ProductTensor, g: LinearMap) -> ProductTensor:
    """The product g o p, i.e. feed every basis value through g."""
    f = require_same_field(p.field, g.field)
    n = p.dim
    return product_from_basis_values(
        f, n, lambda i, j: g.apply(Vector(f, p.c[i][j])))


def yau_twist(kind: str, s, alpha: LinearMap):
    """Twist an untwisted structure by composing each product with an
    endomorphism ``alpha``; the output carries ``alpha`` as its twist map.

    The input is read as the ``TWIST_KINDS[kind]`` structure (see
    :func:`homstruct.axioms.coerce_for_check`; ``ShapeError`` when it
    cannot be, or when ``kind`` is unknown). It must have the identity
    twist, and ``alpha`` must commute with every product (checked; a
    witness-carrying verdict is attached to the error on failure). A
    declared unit survives only for the trivial identity twist, since
    composing with ``alpha`` destroys the strict unit law otherwise.
    """
    if kind not in TWIST_KINDS:
        raise ShapeError(f"unknown twist kind {kind!r}")
    _require_valid(s)
    out_kind = TWIST_KINDS[kind]
    s = coerce_for_check(out_kind, s)
    if not s.alpha.is_identity():
        raise ConstructionError("input must be untwisted (identity twist)")
    if alpha.source_dim != s.dim or alpha.target_dim != s.dim:
        raise ShapeError("twist map must be an endomorphism of the space")
    values = s.section_values()
    bare = s.from_sections(out_kind, {**values, "unit": None})
    verdict = check_morphism(alpha, bare, bare)
    if not verdict.passed:
        raise ConstructionError("twist map is not an endomorphism", verdict)

    twisted = {section: _twist_tensor(value, alpha)
               for section, value in values.items()
               if SECTION_TYPES[section] == "product"}
    twisted["alpha"] = alpha
    if alpha.is_identity():
        twisted["unit"] = values.get("unit")
    return s.from_sections(out_kind, twisted)


# ---------------------------------------------------------------------------
# unit-adjoining bialgebra extensions

def _check_extension_input(a: HomAlgebra, allow_ineligible, need_basis_unit):
    """The input read as a hom-algebra, whether its twist fixes the unit,
    and the unit's basis index (or None)."""
    _require_valid(a)
    if a.unit is None:
        raise MissingMapError("unit-adjoining construction needs a unital input")
    a = coerce_for_check("hom-algebra", a)
    eligible = is_unit_extension_eligible(a)
    if not eligible and not allow_ineligible:
        raise NotEligibleError(
            "twist does not fix the unit; pass allow_ineligible=True to build "
            "the case-split extension anyway")
    basis_unit = unit_basis_index(a)
    if need_basis_unit and basis_unit is None:
        raise NotEligibleError("this construction extends the coproduct "
                               "case-wise and needs the unit to be a basis "
                               "vector")
    if not eligible and basis_unit is None:
        raise NotEligibleError("extending a twist that moves the unit needs "
                               "the unit to be a basis vector")
    return a, eligible, basis_unit


def _extended_product(a: HomAlgebra) -> ProductTensor:
    """Extend the product to span(new unit) + V, new unit at index 0."""
    f, n = a.field, a.dim
    z, one = f.zero, f.one
    m = n + 1
    c = [[[z] * m for _ in range(m)] for _ in range(m)]
    for j in range(m):
        c[0][j][j] = one
        c[j][0][j] = one
    c[0][0][0] = one
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i + 1][j + 1][k + 1] = a.mu.c[i][j][k]
    return ProductTensor(f, tuple(tuple(tuple(r) for r in pl) for pl in c))


def _extended_twist(a: HomAlgebra, eligible: bool) -> LinearMap:
    """Extend the twist: fixes the new unit, fixes the old unit, and acts
    as the original twist on the other basis vectors."""
    f, n = a.field, a.dim
    z, one = f.zero, f.one
    rows = [[z] * (n + 1) for _ in range(n + 1)]
    rows[0][0] = one
    t = unit_basis_index(a)
    for j in range(n):
        if not eligible and j == t:
            rows[t + 1][t + 1] = one
            continue
        for i in range(n):
            rows[i + 1][j + 1] = a.alpha.rows[i][j]
    return LinearMap(f, tuple(tuple(r) for r in rows))


def _extension_counit(a: HomAlgebra) -> LinearMap:
    f, n = a.field, a.dim
    return LinearMap(f, ((f.one,) + (f.zero,) * n,))


def kaplansky_k1(a: HomAlgebra, allow_ineligible: bool = False) -> HomBialgebra:
    """First unit-adjoining extension: adjoin a new unit e1 and extend the
    coproduct by delta(x) = t(x) (x) e1 + e1 (x) t(x) - u (x) t(x), where u
    is the old unit and t the extended twist.

    The canonical case needs the twist to fix the unit; with
    ``allow_ineligible=True`` the case-split extended twist (which fixes
    both units by definition) is used instead, and the checkers decide
    what the output satisfies.
    """
    a, eligible, _ = _check_extension_input(a, allow_ineligible,
                                            need_basis_unit=False)
    f, n = a.field, a.dim
    m = n + 1
    z, one = f.zero, f.one
    alpha1 = _extended_twist(a, eligible)
    old_unit = (z,) + a.unit.coords

    d = [[[z] * m for _ in range(m)] for _ in range(m)]
    d[0][0][0] = one
    for i in range(n):
        image = alpha1.column(i + 1).coords
        for j in range(m):
            aj = image[j]
            if aj == z:
                continue
            d[i + 1][j][0] = f.add(d[i + 1][j][0], aj)
            d[i + 1][0][j] = f.add(d[i + 1][0][j], aj)
            for k in range(m):
                if old_unit[k] != z:
                    d[i + 1][k][j] = f.sub(d[i + 1][k][j],
                                           f.mul(old_unit[k], aj))
    delta = CoproductTensor(f, tuple(tuple(tuple(r) for r in pl) for pl in d))
    return HomBialgebra(_extended_product(a), basis_vector(f, m, 0), delta,
                        _extension_counit(a), alpha1)


def kaplansky_k2(a: HomAlgebra, allow_ineligible: bool = False) -> HomBialgebra:
    """Second unit-adjoining extension: same product extension as the
    first, but the coproduct splits into three cases (new unit, old unit,
    and the remaining basis vectors).

    The case split is only linear when the old unit is itself a basis
    vector, so other inputs are rejected.
    """
    a, eligible, t = _check_extension_input(a, allow_ineligible,
                                            need_basis_unit=True)
    f, n = a.field, a.dim
    m = n + 1
    z, one = f.zero, f.one
    alpha2 = _extended_twist(a, eligible)
    unit_new = t + 1

    d = [[[z] * m for _ in range(m)] for _ in range(m)]
    d[0][0][0] = one
    d[unit_new][unit_new][0] = one
    d[unit_new][0][unit_new] = one
    d[unit_new][unit_new][unit_new] = f.neg(one)
    for i in range(n):
        if i == t:
            continue
        image = alpha2.column(i + 1).coords
        for j in range(m):
            aj = image[j]
            if aj == z:
                continue
            d[i + 1][0][j] = f.add(d[i + 1][0][j], aj)
            d[i + 1][unit_new][j] = f.sub(d[i + 1][unit_new][j], aj)
            d[i + 1][j][0] = f.add(d[i + 1][j][0], aj)
            d[i + 1][j][unit_new] = f.sub(d[i + 1][j][unit_new], aj)
    delta = CoproductTensor(f, tuple(tuple(tuple(r) for r in pl) for pl in d))
    return HomBialgebra(_extended_product(a), basis_vector(f, m, 0), delta,
                        _extension_counit(a), alpha2)


def assemble_two(kind: str, a: HomAlgebra, b: HomAlgebra,
                 allow_ineligible: bool = False):
    """Bundle the unit-adjoining extensions of two unital algebras that
    share their space, twist and unit into a two-product structure.

    Kinds: ``2-assoc-bialgebra-B1`` (one coproduct; the second product's
    view must satisfy the infinitesimal relation), ``2-bialgebras-B1B2``
    (returns the pair built from both coproduct extensions, the second
    member with the co-opposite first coproduct), and ``2-2-bialgebra``.
    """
    if kind not in ASSEMBLY_KINDS:
        raise ShapeError(f"unknown assembly kind {kind!r}")
    _require_valid(a, "first input")
    _require_valid(b, "second input")
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    require_same_field(a.field, b.field)
    if not tensors_equal(a.alpha, b.alpha):
        raise ConstructionError("inputs must share one twist map")
    if a.unit is None or b.unit is None or not tensors_equal(a.unit, b.unit):
        raise ConstructionError("inputs must share one unit")

    k1a = kaplansky_k1(a, allow_ineligible)
    if kind == "2-assoc-bialgebra-B1":
        k1b = kaplansky_k1(b, allow_ineligible)
        return TwoHomStructure("2-hom-assoc-bialgebra", k1a.mu, k1b.mu,
                               k1a.alpha, k1a.unit, delta1=k1a.delta,
                               counit1=k1a.counit)
    if kind == PAIR_ASSEMBLY:
        k2b = kaplansky_k2(b, allow_ineligible)
        first = TwoHomStructure("2-hom-bialgebra", k1a.mu, k2b.mu, k1a.alpha,
                                k1a.unit, delta1=k1a.delta, delta2=k2b.delta,
                                counit1=k1a.counit, counit2=k2b.counit)
        second = TwoHomStructure("2-hom-bialgebra", k1a.mu, k2b.mu, k1a.alpha,
                                 k1a.unit, delta1=coopposite(k1a.delta),
                                 delta2=k2b.delta, counit1=k1a.counit,
                                 counit2=k2b.counit)
        return first, second
    k1b = kaplansky_k1(b, allow_ineligible)
    return TwoHomStructure("2-2-hom-bialgebra", k1a.mu, k1b.mu, k1a.alpha,
                           k1a.unit, delta1=k1a.delta, delta2=k1b.delta,
                           counit1=k1a.counit, counit2=k1b.counit)


def tensor_product(a: HomAlgebra, b: HomAlgebra) -> HomAlgebra:
    """Factorwise product and twist on the lexicographically flattened
    tensor space; the unit is the tensor of units when both exist."""
    _require_valid(a, "first input")
    _require_valid(b, "second input")
    a, b = coerce_for_check("hom-algebra", a), coerce_for_check("hom-algebra", b)
    f = require_same_field(a.field, b.field)
    n, m = a.dim, b.dim
    nm = n * m
    z = f.zero
    c = [[[z] * nm for _ in range(nm)] for _ in range(nm)]
    for i1 in range(n):
        for j1 in range(n):
            for k1 in range(n):
                ca = a.mu.c[i1][j1][k1]
                if ca == z:
                    continue
                for i2 in range(m):
                    for j2 in range(m):
                        for k2 in range(m):
                            cb = b.mu.c[i2][j2][k2]
                            if cb != z:
                                c[i1 * m + i2][j1 * m + j2][k1 * m + k2] = \
                                    f.mul(ca, cb)
    mu = ProductTensor(f, tuple(tuple(tuple(r) for r in pl) for pl in c))
    alpha = kron(a.alpha, b.alpha)
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = Vector(f, tuple(f.mul(x, y) for x in a.unit.coords
                               for y in b.unit.coords))
    return HomAlgebra(mu, alpha, unit)


def opposite(p: ProductTensor) -> ProductTensor:
    """Swap the product arguments: the (i, j) value becomes the (j, i) one."""
    n = p.dim
    return ProductTensor(p.field, tuple(
        tuple(tuple(p.c[j][i][k] for k in range(n)) for j in range(n))
        for i in range(n)))


def coopposite(q: CoproductTensor) -> CoproductTensor:
    """Flip the two output legs of a comultiplication."""
    n = q.dim
    return CoproductTensor(q.field, tuple(
        tuple(tuple(q.d[k][j][i] for j in range(n)) for i in range(n))
        for k in range(n)))


def dialgebra_from_differential(dh: DifferentialHomAlgebra) -> HomDialgebra:
    """Two products from a differential algebra: x -| y = t(x) . d(t(y))
    and x |- y = d(t(x)) . t(y), where t is the twist."""
    verdict = run_check("differential", dh)
    if not verdict.passed:
        raise ConstructionError("differential axioms fail", verdict)
    f, n = dh.field, dh.dim
    mu, alpha, d = dh.mu, dh.alpha, dh.d

    def left_at(i, j):
        return apply_bilinear(mu, alpha.column(i),
                              d.apply(alpha.column(j)))

    def right_at(i, j):
        return apply_bilinear(mu, d.apply(alpha.column(i)),
                              alpha.column(j))

    return HomDialgebra(product_from_basis_values(f, n, left_at),
                        product_from_basis_values(f, n, right_at), alpha)


def leibniz_from_differential(dh: DifferentialHomAlgebra) -> HomLeibniz:
    """The bracket t(x) . d(t(y)) - d(t(y)) . t(x) of a differential
    algebra."""
    verdict = run_check("differential", dh)
    if not verdict.passed:
        raise ConstructionError("differential axioms fail", verdict)
    f, n = dh.field, dh.dim
    mu, alpha, d = dh.mu, dh.alpha, dh.d

    def at(i, j):
        ax = alpha.column(i)
        day = d.apply(alpha.column(j))
        return apply_bilinear(mu, ax, day).sub(apply_bilinear(mu, day, ax))

    return HomLeibniz(product_from_basis_values(f, n, at), alpha)


def bracket_from_dialgebra(d: HomDialgebra, variant: str = "loday") -> HomLeibniz:
    """Derived bracket of a two-product structure.

    ``aligned``: [x, y] = x -| y - x |- y (both products applied to the
    arguments in order); requires the dialgebra axioms. ``loday``:
    [x, y] = x -| y - y |- x (the standard dialgebra commutator);
    requires the left-disymmetry axioms.
    """
    if variant not in BRACKET_VARIANTS:
        raise ConstructionError(f"unknown bracket variant {variant!r}")
    verdict = run_check("hom-dialgebra" if variant == "aligned" else "hlsda",
                        d)
    if not verdict.passed:
        raise ConstructionError(f"prerequisite check for the {variant} "
                                f"bracket fails", verdict)
    return _derived_bracket(d, variant)


def _derived_bracket(d, variant) -> HomLeibniz:
    """The ``variant`` bracket of the products ``d.left``, ``d.right``,
    unchecked."""
    f, n = d.field, d.dim

    def at(i, j):
        ei, ej = basis_vector(f, n, i), basis_vector(f, n, j)
        first = apply_bilinear(d.left, ei, ej)
        second = apply_bilinear(d.right, ei, ej) if variant == "aligned" \
            else apply_bilinear(d.right, ej, ei)
        return first.sub(second)

    return HomLeibniz(product_from_basis_values(f, n, at), d.alpha)


def hlsda_from_affine(a: AffineStructure) -> HLSDA:
    """Read the two affine maps as products: x |- y = nabla1(x, y) and
    x -| y = nabla2(x, y)."""
    verdict = run_check("affine", a)
    if not verdict.passed:
        raise ConstructionError("affine axioms fail", verdict)
    return HLSDA(a.nabla2, a.nabla1, a.alpha)


def affine_from_hlsda(s: HLSDA) -> AffineStructure:
    """Inverse reading: the products become the affine maps over the
    derived commutator bracket."""
    verdict = run_check("hlsda", s)
    if not verdict.passed:
        raise ConstructionError("left-disymmetry axioms fail", verdict)
    return AffineStructure(s.right, s.left, _derived_bracket(s, "loday"))


def trivial_dialgebra(a: HomAlgebra) -> HomDialgebra:
    """Use one product on both sides."""
    verdict = run_check("hom-algebra", a)
    if not verdict.passed:
        raise ConstructionError("input is not twisted-associative", verdict)
    return HomDialgebra(a.mu, a.mu, a.alpha)


# ---------------------------------------------------------------------------
# one entry point per construction verb

# construction verb -> number of input structures
CONSTRUCT_VERBS = {
    "assemble": 2, "bracket": 1, "cop": 1, "dialg-from-diff": 1,
    "hlsda-from-affine": 1, "k1": 1, "k2": 1, "leibniz-from-diff": 1,
    "op": 1, "tensor": 2, "trivial-dialg": 1, "twist": 1,
}


def yields_pair(verb: str, kind: str) -> bool:
    """Does ``construct(verb, ..., kind=kind)`` return a pair?"""
    return verb == "assemble" and kind == PAIR_ASSEMBLY


def construct(verb: str, inputs, kind: str = "algebra",
              variant: str = "loday", alpha: LinearMap = None,
              allow_ineligible: bool = False):
    """Run the construction ``verb`` on the structures ``inputs``.

    ``kind`` is the twist kind of ``twist`` and the assembly kind of
    ``assemble``, ``variant`` the bracket variant, ``alpha`` the twist map,
    and ``allow_ineligible`` lets ``k1``, ``k2`` and ``assemble`` build the
    case-split extensions. ``op`` and ``cop`` flip the product or the
    coproduct of any kind that carries one. ``assemble`` with kind
    ``2-bialgebras-B1B2`` returns a pair; every other verb one structure.
    """
    if verb not in CONSTRUCT_VERBS:
        raise ShapeError(f"unknown construction {verb!r}")
    if len(inputs) != CONSTRUCT_VERBS[verb]:
        raise ShapeError(f"{verb} takes {CONSTRUCT_VERBS[verb]} input "
                         f"structures, got {len(inputs)}")
    if verb == "twist" and alpha is None:
        raise ShapeError("twist needs a twist map")
    s, *rest = inputs
    if verb in ("op", "cop"):
        section, flip, carrying, what = (
            ("mu", opposite, (HomAlgebra, HomBialgebra), "product")
            if verb == "op" else
            ("delta", coopposite, (HomCoalgebra, HomBialgebra), "coproduct"))
        if not isinstance(s, carrying):
            raise ShapeError(f"{verb} needs a {what}-carrying kind")
        values = s.section_values()
        values[section] = flip(values[section])
        return s.from_sections(s.kind, values)
    return {
        "assemble": lambda: assemble_two(kind, s, *rest, allow_ineligible),
        "bracket": lambda: bracket_from_dialgebra(s, variant),
        "dialg-from-diff": lambda: dialgebra_from_differential(s),
        "hlsda-from-affine": lambda: hlsda_from_affine(s),
        "k1": lambda: kaplansky_k1(s, allow_ineligible),
        "k2": lambda: kaplansky_k2(s, allow_ineligible),
        "leibniz-from-diff": lambda: leibniz_from_differential(s),
        "tensor": lambda: tensor_product(s, *rest),
        "trivial-dialg": lambda: trivial_dialgebra(s),
        "twist": lambda: yau_twist(kind, s, alpha),
    }[verb]()
