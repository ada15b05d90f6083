"""Axiom checks, each selected by its id in :data:`CHECKS` and run with
:func:`run_check`.

Every identity is decided on all basis tuples, which suffices because
both sides are multilinear in their arguments. A failed identity is
reported through a :class:`Witness` carrying the basis tuple and the two
exactly evaluated sides, so any failure can be replayed.

Each identity is one closure over the :mod:`homstruct.linalg`
primitives, and it is the only definition of that identity.
:func:`run_suite` calls it once, with the batch of all basis vectors
along argument position a as its a-th argument
(:func:`~homstruct.linalg.basis_batch`). Each side comes back as a batch
over the positions it depends on, each subexpression computed once per
distinct index combination, or as a plain value when it depends on none.
The witnesses are the basis tuples where the sides differ, in
``itertools.product`` order.

A composite check (the paper's two-product structures) is judged
through its constituent views, each a plain check: :func:`_parts` gives
each part's tests with the part's label prefixed to their ``where``,
:func:`suite_for` lists the parts one after another, and
:func:`run_check` runs :func:`run_suite` once per part, so each part
has its own witness cap. A test and its witnesses are named by their
``key``, ``where/axiom``, as ``Verdict.checked`` lists it.

The random-vector cross-check in :mod:`homstruct.oracle` calls the same
closures on batches of random samples, every argument along one shared
sample axis, and re-evaluates the witnesses of each axiom in one call
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .errors import ShapeError
from .linalg import (apply_bilinear, apply_coproduct, basis_batch, bullet,
                     coproduct_on_left, coproduct_on_right, map_on_leg3,
                     mismatches, multiply_leg, outer, tensors_equal,
                     zero_vector)
from .structures import (AffineStructure, DifferentialHomAlgebra, HLSDA,
                         HomAlgebra, HomBialgebra, HomCoalgebra, HomDialgebra,
                         HomLeibniz, HomPreLie, TwoHomStructure)

DEFAULT_WITNESS_CAP = 16

COUNIT_MODES = ("eq7", "eq8")  # squared-twist form vs plain-twist form


class _Keyed:
    """The ``key`` of an identity, as ``Verdict.checked`` lists it:
    ``where/axiom``, or the axiom alone."""

    @property
    def key(self) -> str:
        return f"{self.where}/{self.axiom}" if self.where else self.axiom


@dataclass(frozen=True)
class Witness(_Keyed):
    """A basis tuple where an identity fails, with both evaluated sides."""

    axiom: str
    at: tuple
    lhs: object
    rhs: object
    where: str = ""

    def label(self, basis=None):
        names = [basis[i] if basis else f"e{i + 1}" for i in self.at]
        loc = f"{self.where}: " if self.where else ""
        return f"{loc}{self.axiom} @ ({', '.join(names)})"


@dataclass(frozen=True)
class InfoNote:
    """A non-fatal observation (reported, never failing the verdict)."""

    name: str
    holds: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class Verdict:
    witnesses: tuple
    checked: tuple
    info: tuple = ()
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return not self.witnesses

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def failing_axioms(self) -> tuple:
        seen = []
        for w in self.witnesses:
            if w.axiom not in seen:
                seen.append(w.axiom)
        return tuple(seen)

    def failing_keys(self) -> list:
        """The sorted distinct keys of the witnesses."""
        return sorted({w.key for w in self.witnesses})


@dataclass(frozen=True)
class AxiomTest(_Keyed):
    """An identity: ``evaluate(*vectors)`` returns the two sides."""

    axiom: str
    arity: int
    evaluate: Callable
    where: str = ""
    fatal: bool = True


# ---------------------------------------------------------------------------
# suite builders

def _algebra_tests(mu, alpha, unit, where=""):
    def mult(x, y):
        return alpha.apply(apply_bilinear(mu, x, y)), \
            apply_bilinear(mu, alpha.apply(x), alpha.apply(y))

    def homassoc(x, y, z):
        return apply_bilinear(mu, alpha.apply(x), apply_bilinear(mu, y, z)), \
            apply_bilinear(mu, apply_bilinear(mu, x, y), alpha.apply(z))

    tests = [AxiomTest("multiplicativity", 2, mult, where),
             AxiomTest("hom-associativity", 3, homassoc, where)]
    if unit is not None:
        tests += [
            AxiomTest("unit-left", 1,
                      lambda x: (apply_bilinear(mu, unit, x), x), where),
            AxiomTest("unit-right", 1,
                      lambda x: (apply_bilinear(mu, x, unit), x), where),
        ]
    return tests


def _coassoc_tests(delta, alpha, where=""):
    def comult(x):
        t = apply_coproduct(delta, x)
        return t.map_left(alpha).map_right(alpha), \
            apply_coproduct(delta, alpha.apply(x))

    def coassoc(x):
        t = apply_coproduct(delta, x)
        lhs = map_on_leg3(coproduct_on_right(t, delta), alpha, 0)
        rhs = map_on_leg3(coproduct_on_left(t, delta), alpha, 2)
        return lhs, rhs

    return [AxiomTest("comultiplicativity", 1, comult, where),
            AxiomTest("hom-coassociativity", 1, coassoc, where)]


def _counit_tests(delta, counit, alpha, counit_mode, where=""):
    """The two counit laws, in one of two conventions: ``eq7`` compares
    the contracted coproduct against the squared twist, ``eq8`` against
    the twist itself with identity legs."""
    if counit_mode not in COUNIT_MODES:
        raise ValueError(f"counit mode must be one of {COUNIT_MODES}")
    squared = counit_mode == "eq7"

    def target(x):
        ax = alpha.apply(x)
        return alpha.apply(ax) if squared else ax

    def left(x):
        t = apply_coproduct(delta, x)
        out = t.contract_left(counit)
        return (alpha.apply(out) if squared else out), target(x)

    def right(x):
        t = apply_coproduct(delta, x)
        out = t.contract_right(counit)
        return (alpha.apply(out) if squared else out), target(x)

    return [AxiomTest("counit-left", 1, left, where),
            AxiomTest("counit-right", 1, right, where)]


def _coalgebra_tests(delta, counit, alpha, counit_mode, where=""):
    tests = _coassoc_tests(delta, alpha, where)
    if counit is not None:
        tests += _counit_tests(delta, counit, alpha, counit_mode, where)
    return tests


def _compat_tests(mu, delta, counit, alpha, where=""):
    """The four compatibility identities making the coproduct and the
    counit morphisms of twisted algebras."""
    f = mu.field

    def coproduct_mult(x, y):
        lhs = apply_coproduct(delta, apply_bilinear(mu, x, y))
        rhs = bullet(mu, apply_coproduct(delta, x), apply_coproduct(delta, y))
        return lhs, rhs

    def counit_mult(x, y):
        # eps(x) eps(y) as a 1-entry vector: x (x) eps(y) contracted by eps
        return counit.apply(apply_bilinear(mu, x, y)), \
            outer(x, counit.apply(y)).contract_left(counit)

    def counit_twist(x):
        return counit.apply(alpha.apply(x)), counit.apply(x)

    return (_coassoc_tests(delta, alpha, where)[:1]  # comultiplicativity
            + [AxiomTest("coproduct-multiplicativity", 2, coproduct_mult, where),
               AxiomTest("counit-multiplicativity", 2, counit_mult, where),
               AxiomTest("counit-twist-invariance", 1, counit_twist, where)])


def _infinitesimal_test(mu, delta, alpha, where=""):
    def inf(x, y):
        lhs = apply_coproduct(delta, apply_bilinear(mu, x, y))
        ax, ay = alpha.apply(x), alpha.apply(y)
        # (mu(ax, .) (x) alpha) delta(y) and (alpha (x) mu(., ay)) delta(x)
        first = multiply_leg(mu, ax, apply_coproduct(delta, y),
                             0).map_right(alpha)
        second = multiply_leg(mu, ay, apply_coproduct(delta, x),
                              1).map_left(alpha)
        third = outer(alpha.apply(ax), ay)
        return lhs, first.add(second).sub(third)

    return [AxiomTest("infinitesimal", 2, inf, where)]


def _dialgebra_axiom_tests(left, right, alpha, where=""):
    def inner_left(x, y, z):
        ax = alpha.apply(x)
        return apply_bilinear(left, ax, apply_bilinear(left, y, z)), \
            apply_bilinear(left, ax, apply_bilinear(right, y, z))

    def middle(x, y, z):
        return apply_bilinear(left, apply_bilinear(right, x, y), alpha.apply(z)), \
            apply_bilinear(right, alpha.apply(x), apply_bilinear(left, y, z))

    def inner_right(x, y, z):
        az = alpha.apply(z)
        return apply_bilinear(right, apply_bilinear(right, x, y), az), \
            apply_bilinear(right, apply_bilinear(left, x, y), az)

    return [AxiomTest("inner-irrelevance-left", 3, inner_left, where),
            AxiomTest("middle-exchange", 3, middle, where),
            AxiomTest("inner-irrelevance-right", 3, inner_right, where)]


def _leibniz_test(bracket, alpha, where=""):
    def leibniz(x, y, z):
        lhs = apply_bilinear(bracket, apply_bilinear(bracket, x, y),
                             alpha.apply(z))
        rhs = apply_bilinear(bracket, apply_bilinear(bracket, x, z),
                             alpha.apply(y)).add(
            apply_bilinear(bracket, alpha.apply(x),
                           apply_bilinear(bracket, y, z)))
        return lhs, rhs

    return [AxiomTest("leibniz", 3, leibniz, where)]


def _prelie_test(product, alpha, where=""):
    def left_symmetry(x, y, z):
        def assoc(u, v, w):
            return apply_bilinear(product, alpha.apply(u),
                                  apply_bilinear(product, v, w)).sub(
                apply_bilinear(product, apply_bilinear(product, u, v),
                               alpha.apply(w)))
        return assoc(x, y, z), assoc(y, x, z)

    return [AxiomTest("left-symmetry", 3, left_symmetry, where)]


def _hlsda_tests(left, right, alpha, where=""):
    """The four left-disymmetry identities."""
    base = _dialgebra_axiom_tests(left, right, alpha, where)

    def mixed(x, y, z):
        ax, ay, az = alpha.apply(x), alpha.apply(y), alpha.apply(z)
        lhs = apply_bilinear(left, ax, apply_bilinear(left, y, z)).sub(
            apply_bilinear(left, apply_bilinear(left, x, y), az))
        rhs = apply_bilinear(right, ay, apply_bilinear(left, x, z)).sub(
            apply_bilinear(left, apply_bilinear(right, y, x), az))
        return lhs, rhs

    def right_sym(x, y, z):
        ax, ay, az = alpha.apply(x), alpha.apply(y), alpha.apply(z)
        lhs = apply_bilinear(right, ax, apply_bilinear(right, y, z)).sub(
            apply_bilinear(right, apply_bilinear(right, x, y), az))
        rhs = apply_bilinear(right, ay, apply_bilinear(right, x, z)).sub(
            apply_bilinear(right, apply_bilinear(right, y, x), az))
        return lhs, rhs

    return [base[0], base[2],
            AxiomTest("left-symmetry-mixed", 3, mixed, where),
            AxiomTest("left-symmetry-right", 3, right_sym, where)]


def _affine_tests(a: AffineStructure, where=""):
    """Bracket compatibility and the four affine identities, with the
    underlying Leibniz identity as a prerequisite."""
    n1, n2 = a.nabla1, a.nabla2
    br = a.leibniz.bracket
    alpha = a.alpha

    def bracket_diff(x, y):
        return apply_bilinear(n2, x, y).sub(apply_bilinear(n1, y, x)), \
            apply_bilinear(br, x, y)

    def n1_inner(x, y, z):
        az = alpha.apply(z)
        return apply_bilinear(n1, apply_bilinear(n1, x, y), az), \
            apply_bilinear(n1, apply_bilinear(n2, x, y), az)

    def n2_inner(x, y, z):
        ax = alpha.apply(x)
        return apply_bilinear(n2, ax, apply_bilinear(n2, y, z)), \
            apply_bilinear(n2, ax, apply_bilinear(n1, y, z))

    def n2_bracket(x, y, z):
        lhs = apply_bilinear(n2, alpha.apply(x),
                             apply_bilinear(n2, y, z)).sub(
            apply_bilinear(n1, alpha.apply(y), apply_bilinear(n2, x, z)))
        return lhs, apply_bilinear(n2, apply_bilinear(br, x, y),
                                   alpha.apply(z))

    def n1_bracket(x, y, z):
        lhs = apply_bilinear(n1, alpha.apply(x),
                             apply_bilinear(n1, y, z)).sub(
            apply_bilinear(n1, alpha.apply(y), apply_bilinear(n1, x, z)))
        return lhs, apply_bilinear(n1, apply_bilinear(br, x, y),
                                   alpha.apply(z))

    return (_leibniz_test(br, alpha, where)
            + [AxiomTest("nabla-bracket-difference", 2, bracket_diff, where),
               AxiomTest("nabla1-inner-exchange", 3, n1_inner, where),
               AxiomTest("nabla2-inner-exchange", 3, n2_inner, where),
               AxiomTest("nabla2-bracket-rule", 3, n2_bracket, where),
               AxiomTest("nabla1-bracket-rule", 3, n1_bracket, where)])


def _differential_tests(dh: DifferentialHomAlgebra, where=""):
    """Derivation rule, square-zero and twist commutation, over the
    twisted-associative algebra axioms."""
    mu, alpha, d = dh.mu, dh.alpha, dh.d
    n, f = dh.dim, dh.field

    def derivation(x, y):
        return d.apply(apply_bilinear(mu, x, y)), \
            apply_bilinear(mu, d.apply(x), y).add(
                apply_bilinear(mu, x, d.apply(y)))

    def square_zero(x):
        return d.apply(d.apply(x)), zero_vector(f, n)

    def twist_comm(x):
        return d.apply(alpha.apply(x)), alpha.apply(d.apply(x))

    return (_algebra_tests(mu, alpha, dh.unit, where)
            + [AxiomTest("derivation-rule", 2, derivation, where),
               AxiomTest("square-zero", 1, square_zero, where),
               AxiomTest("twist-commutation", 1, twist_comm, where)])


# ---------------------------------------------------------------------------
# suite drivers

def run_suite(structure_dim, field, tests, witness_cap=DEFAULT_WITNESS_CAP):
    """Evaluate each test once over all basis tuples; report witnesses in
    ``itertools.product`` order of the tuples, at most ``witness_cap`` of
    them over the fatal tests, stopping at the test that reaches it."""
    if witness_cap < 1:
        raise ValueError(f"witness cap must be at least 1, got {witness_cap}")
    witnesses = []
    checked = []
    info = []
    truncated = False
    basis = [basis_batch(field, structure_dim, a)
             for a in range(max((t.arity for t in tests), default=0))]
    for test in tests:
        if test.key not in checked:
            checked.append(test.key)
        local = []
        lhs, rhs = test.evaluate(*basis[:test.arity])
        for at, a, b in mismatches(lhs, rhs, test.arity, structure_dim):
            local.append(Witness(test.axiom, at, a, b, test.where))
            if test.fatal and len(witnesses) + len(local) >= witness_cap:
                truncated = True
                break
        if test.fatal:
            witnesses.extend(local)
            if truncated:
                break
        else:
            info.append(InfoNote(test.key, not local, tuple(local)))
    return Verdict(tuple(witnesses), tuple(checked), tuple(info), truncated)


# ---------------------------------------------------------------------------
# morphisms

def check_morphism(f, src, dst, witness_cap=DEFAULT_WITNESS_CAP) -> Verdict:
    """Does ``f`` intertwine every map the two structures carry?

    Products, the twist, and (when present on both sides) unit,
    coproducts, and counits must all commute with ``f``.
    """
    if src.kind != dst.kind:
        raise ShapeError(f"kind mismatch: {src.kind} vs {dst.kind}")
    if f.source_dim != src.dim or f.target_dim != dst.dim:
        raise ShapeError("morphism matrix shape does not match the structures")
    sp, dp = src.products(), dst.products()
    if set(sp) != set(dp):
        raise ShapeError("structures carry different product families")
    tests = []
    for name in sorted(sp):
        def intertwine(x, y, _s=sp[name], _d=dp[name]):
            return f.apply(apply_bilinear(_s, x, y)), \
                apply_bilinear(_d, f.apply(x), f.apply(y))
        tests.append(AxiomTest("product-intertwine", 2, intertwine, name))

    def twist(x):
        return f.apply(src.alpha.apply(x)), dst.alpha.apply(f.apply(x))

    tests.append(AxiomTest("twist-intertwine", 1, twist))
    if getattr(src, "unit", None) is not None and getattr(dst, "unit", None) is not None:
        tests.append(AxiomTest("unit-preserved", 0,
                               lambda: (f.apply(src.unit), dst.unit)))
    sq, dq = src.coproducts(), dst.coproducts()
    for name in sorted(set(sq) & set(dq)):
        def cop_intertwine(x, _s=sq[name], _d=dq[name]):
            return apply_coproduct(_s, x).map_left(f).map_right(f), \
                apply_coproduct(_d, f.apply(x))
        tests.append(AxiomTest("coproduct-intertwine", 1, cop_intertwine, name))
    se, de = src.counits(), dst.counits()
    for name in sorted(set(se) & set(de)):
        def counit_pres(x, _s=se[name], _d=de[name]):
            return _d.apply(f.apply(x)), _s.apply(x)
        tests.append(AxiomTest("counit-preserved", 1, counit_pres, name))
    return run_suite(src.dim, src.field, tests, witness_cap)


# ---------------------------------------------------------------------------
# the check table: every check id resolves here

def classify_two_hom(s: TwoHomStructure) -> str:
    """Type tag by equality of the two products and the two coproducts."""
    same_mu = tensors_equal(s.mu1, s.mu2)
    d1 = s.delta1
    d2 = s.delta2 if s.delta2 is not None else s.delta1
    same_delta = True if d1 is None else tensors_equal(d1, d2)
    return f"({1 if same_mu else 2}-{1 if same_delta else 2})"


def _hom_bialgebra_suite(s, counit_mode, strict_assoc):
    """The full unital bialgebra suite: algebra, coalgebra and
    compatibility."""
    return (_algebra_tests(s.mu, s.alpha, s.unit)
            + _coassoc_tests(s.delta, s.alpha)[1:]  # coassociativity
            + _counit_tests(s.delta, s.counit, s.alpha, counit_mode)
            + _compat_tests(s.mu, s.delta, s.counit, s.alpha))


def _infinitesimal_suite(s, counit_mode, strict_assoc):
    """The twisted infinitesimal relation, with the underlying algebra and
    coalgebra axioms alongside as prerequisites."""
    return (_algebra_tests(s.mu, s.alpha, s.unit)
            + _coalgebra_tests(s.delta, s.counit, s.alpha, counit_mode)
            + _infinitesimal_test(s.mu, s.delta, s.alpha))


def _dialgebra_suite(s, counit_mode, strict_assoc):
    """Both products twisted-associative and multiplicative, plus the three
    bar-side axioms. ``strict_assoc`` demands plain associativity instead
    of the twisted one."""
    tests = []
    for name, p in (("left", s.left), ("right", s.right)):
        if strict_assoc:
            def strict(x, y, z, _p=p):
                return apply_bilinear(_p, x, apply_bilinear(_p, y, z)), \
                    apply_bilinear(_p, apply_bilinear(_p, x, y), z)
            tests.append(AxiomTest("associativity", 3, strict, name))
            tests.append(_algebra_tests(p, s.alpha, None, name)[0])
        else:
            tests.extend(_algebra_tests(p, s.alpha, None, name))
    return tests + _dialgebra_axiom_tests(s.left, s.right, s.alpha)


def _leibniz_suite(s, counit_mode, strict_assoc):
    """The twisted Leibniz identity. Bracket multiplicativity under the
    twist and vanishing self-brackets are reported as non-fatal info."""
    mult = _algebra_tests(s.bracket, s.alpha, None)[0]

    def self_zero(x):
        return apply_bilinear(s.bracket, x, x), zero_vector(s.field, s.dim)

    return _leibniz_test(s.bracket, s.alpha) + [
        AxiomTest("bracket-multiplicativity", 2, mult.evaluate, fatal=False),
        AxiomTest("self-bracket-zero", 1, self_zero, fatal=False)]


def _constituent(s: TwoHomStructure, which_mu, which_delta):
    """The bialgebra view (mu_i, delta_j), or with no delta index the
    hom-algebra on mu_i alone."""
    if which_delta is None:
        return HomAlgebra(s.mu1 if which_mu == 1 else s.mu2, s.alpha, s.unit)
    return s.view(which_mu, which_delta)


@dataclass(frozen=True)
class Check:
    """How one check id reads a structure and what it evaluates.

    ``types`` lists the structure types the check accepts, canonical type
    first, and ``coerce`` reads any other accepted type as the canonical
    one. A plain check builds its tests with ``suite(s, counit_mode,
    strict_assoc)``. A composite check lists its ``parts`` instead, each
    ``(label, constituent check id, mu index, delta index or None)``, the
    constituent always a plain check; each part's tests carry the label
    before their ``where``, every part runs under its own witness cap, and
    the verdict is the parts' verdicts one after another. ``type_note``
    adds the (i-j) type of the pair as info.
    """

    types: tuple
    suite: Optional[Callable] = None
    parts: tuple = ()
    coerce: Optional[Callable] = None
    type_note: bool = False


CHECKS = {
    "hom-algebra": Check(
        (HomAlgebra, HomBialgebra, DifferentialHomAlgebra),
        lambda s, mode, strict: _algebra_tests(s.mu, s.alpha, s.unit),
        coerce=lambda s: HomAlgebra(s.mu, s.alpha, s.unit)),
    "hom-coalgebra": Check(
        (HomCoalgebra, HomBialgebra),
        lambda s, mode, strict: _coalgebra_tests(s.delta, s.counit, s.alpha,
                                                 mode),
        coerce=HomBialgebra.coalgebra),
    "bialgebra-compat": Check(
        (HomBialgebra,),
        lambda s, mode, strict: _compat_tests(s.mu, s.delta, s.counit,
                                              s.alpha)),
    "hom-bialgebra": Check((HomBialgebra,), _hom_bialgebra_suite),
    "infinitesimal": Check((HomBialgebra,), _infinitesimal_suite),
    "hom-dialgebra": Check(
        (HomDialgebra, HLSDA), _dialgebra_suite,
        coerce=lambda d: HomDialgebra(d.left, d.right, d.alpha)),
    "differential": Check(
        (DifferentialHomAlgebra,),
        lambda s, mode, strict: _differential_tests(s)),
    "hom-leibniz": Check((HomLeibniz,), _leibniz_suite),
    "hom-prelie": Check(
        (HomPreLie, HomAlgebra),
        lambda s, mode, strict: _prelie_test(s.product, s.alpha),
        coerce=lambda a: HomPreLie(a.mu, a.alpha)),
    "hlsda": Check(
        (HLSDA, HomDialgebra),
        lambda s, mode, strict: _hlsda_tests(s.left, s.right, s.alpha),
        coerce=lambda d: HLSDA(d.left, d.right, d.alpha)),
    "affine": Check(
        (AffineStructure,), lambda s, mode, strict: _affine_tests(s)),
    "2-hom-assoc-algebra": Check(
        (TwoHomStructure,),
        parts=(("mu1", "hom-algebra", 1, None),
               ("mu2", "hom-algebra", 2, None))),
    "2-hom-assoc-bialgebra": Check(
        (TwoHomStructure,),
        parts=(("mu1+delta", "hom-bialgebra", 1, 1),
               ("mu2+delta", "infinitesimal", 2, 1))),
    "2-hom-bialgebra": Check(
        (TwoHomStructure, HomBialgebra),
        parts=tuple((f"mu{i}+delta{j}", "hom-bialgebra", i, j)
                    for i in (1, 2) for j in (1, 2)),
        coerce=lambda b: TwoHomStructure("2-hom-bialgebra", b.mu, b.mu,
                                         b.alpha, b.unit, b.delta, b.delta,
                                         b.counit, b.counit),
        type_note=True),
    "2-2-hom-bialgebra": Check(
        (TwoHomStructure,),
        parts=(("mu1+delta1", "hom-bialgebra", 1, 1),
               ("mu2+delta2", "hom-bialgebra", 2, 2),
               ("mu1+delta2", "infinitesimal", 1, 2),
               ("mu2+delta1", "infinitesimal", 2, 1)),
        type_note=True),
}

CHECK_IDS = tuple(CHECKS)


def coerce_for_check(check_id: str, s):
    """``s`` read as the structure type ``check_id`` runs on (an algebra as
    its own pre-Lie structure, a dialgebra as a left-disymmetric pair, a
    bialgebra as a (1-1) two-product pair, ...).

    Raises ``ValueError`` for an unknown id and ``ShapeError`` when the
    check cannot run on ``s``.
    """
    try:
        check = CHECKS[check_id]
    except KeyError:
        raise ValueError(f"unknown check id {check_id!r}") from None
    if not isinstance(s, check.types):
        raise ShapeError(f"check {check_id!r} cannot run on a {s.kind} "
                         f"structure")
    if not isinstance(s, check.types[0]):
        s = check.coerce(s)
    if check.parts and s.variant != check_id:
        raise ShapeError(f"kind mismatch: structure is {s.variant}, "
                         f"check asked for {check_id}")
    return s


def default_check(s) -> str:
    """The id of the check a structure is held to by default: the check
    named after its kind, else the one check whose canonical type is its
    record (``differential`` for a differential hom-algebra, ``affine``
    for an affine structure)."""
    if s.kind in CHECKS:
        return s.kind
    (check_id,) = [check_id for check_id, check in CHECKS.items()
                   if check.types[0] is type(s)]
    return check_id


def _parts(check: Check, s, counit_mode, strict_assoc):
    """The tests of each part of a check: a plain check is one part, and
    each part of a composite is a plain check on a constituent, its tests
    with the part's label prefixed to their ``where``."""
    if check.suite is not None:
        return [check.suite(s, counit_mode, strict_assoc)]
    return [[replace(t, where=f"{label}/{t.where}" if t.where else label)
             for t in CHECKS[part].suite(_constituent(s, i, j), counit_mode,
                                         strict_assoc)]
            for label, part, i, j in check.parts]


def suite_for(check_id: str, s, counit_mode="eq7", strict_assoc=False):
    """The flat list of axiom tests a check would run on ``s``.

    Used by the random-vector oracle so that cross-checks exercise the
    same identities the basis checker evaluated. A composite suite is its
    parts' suites one after another.
    """
    s = coerce_for_check(check_id, s)
    return [t for tests in _parts(CHECKS[check_id], s, counit_mode,
                                  strict_assoc)
            for t in tests]


def run_check(check_id: str, s, counit_mode="eq7", strict_assoc=False,
              witness_cap=DEFAULT_WITNESS_CAP) -> Verdict:
    """Run a check selected by id on ``s``, read through
    :func:`coerce_for_check`: each part under its own witness cap, the
    parts' verdicts one after another."""
    s = coerce_for_check(check_id, s)
    check = CHECKS[check_id]
    parts = [run_suite(s.dim, s.field, tests, witness_cap)
             for tests in _parts(check, s, counit_mode, strict_assoc)]
    info = tuple(note for v in parts for note in v.info)
    if check.type_note:
        info += (InfoNote(f"type {classify_two_hom(s)}", True),)
    return Verdict(tuple(w for v in parts for w in v.witnesses),
                   tuple(key for v in parts for key in v.checked), info,
                   any(v.truncated for v in parts))
