from fractions import Fraction

import pytest

import homstruct as hs
from homstruct.errors import MissingMapError
from homstruct.structures import (Finding, is_unit_extension_eligible,
                                  unit_basis_index, validate)

from conftest import F, lmap, product, vec


class TestValidate:
    def test_unital_example_clean_with_warning(self, unital2dim):
        findings = validate(unital2dim)
        assert [f for f in findings if f.severity == "defect"] == []
        warnings = [f for f in findings if f.severity == "warning"]
        assert any(f.code == "unit-not-fixed" for f in warnings)

    def test_validate_idempotent(self, unital2dim):
        first = validate(unital2dim)
        second = validate(unital2dim)
        assert [str(f) for f in first] == [str(f) for f in second]

    def test_shape_defect(self):
        mu = product(2, {})
        bad_alpha = lmap([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        findings = validate(hs.HomAlgebra(mu, bad_alpha))
        assert any(f.code == "shape" and f.severity == "defect"
                   for f in findings)

    def test_malformed_derivation(self, ut2):
        bad = hs.DifferentialHomAlgebra(ut2.algebra, lmap([[0, 1], [1, 0]]))
        assert [f.message for f in validate(bad) if f.code == "shape"] == \
            ["d is 2x2, expected 3x3"]

    def test_malformed_bracket(self):
        nabla = product(2, {})
        bracket = hs.HomLeibniz(product(3, {}), hs.identity_map(F, 2))
        s = hs.AffineStructure(nabla, nabla, bracket)
        assert [f.message for f in validate(s) if f.code == "shape"] == \
            ["bracket is 3x3x3, expected 2x2x2"]

    def test_wrong_unit_reports_witness(self, unital2dim):
        wrong = hs.HomAlgebra(unital2dim.mu, unital2dim.alpha, vec([0, 1]))
        findings = validate(wrong)
        defects = [f for f in findings if f.code == "unit"]
        assert defects
        # the table shows e2 absorbing e1 instead of fixing it
        assert any("e1" in f.message for f in defects)

    def test_unit_defect_writes_scalars_as_documents_do(self):
        mu = product(2, {(0, 0, 0): 1, (0, 1, 1): Fraction(1, 2),
                         (1, 0, 1): 1})
        a = hs.HomAlgebra(mu, hs.identity_map(F, 2), vec([1, 0]))
        assert [f.message for f in validate(a) if f.code == "unit"] == \
            ["mu(unit, e2) = (0, 1/2), expected e2"]

    def test_classical_unit_fixed_no_warning(self, kx3):
        findings = validate(kx3)
        assert not any(f.code == "unit-not-fixed" for f in findings)
        assert is_unit_extension_eligible(kx3)

    def test_non_basis_unit_warning(self, ut2):
        findings = validate(ut2.algebra)
        assert any(f.code == "unit-not-basis" for f in findings)
        assert unit_basis_index(ut2.algebra) is None

    def test_two_hom_variant_requirements(self, unital2dim, mu2_table):
        s = hs.TwoHomStructure("2-hom-assoc-bialgebra", unital2dim.mu,
                               mu2_table, unital2dim.alpha, vec([1, 0]))
        findings = validate(s)
        assert any(f.code == "missing-map" for f in findings)

    def test_mixed_fields_detected(self):
        from homstruct.fields import PrimeField
        gf = PrimeField(2)
        mu = product(2, {})
        alpha = hs.LinearMap(gf, ((1, 0), (0, 1)))
        findings = validate(hs.HomAlgebra(mu, alpha))
        assert any(f.code == "field-mode" for f in findings)


class TestAccessors:
    def test_unit_vector_present(self, unital2dim):
        assert hs.unit_vector(unital2dim).coords == vec([1, 0]).coords

    def test_unit_vector_dim1(self, dim1):
        assert hs.unit_vector(dim1).coords == (F.one,)

    def test_unit_vector_absent(self, hom3dim):
        with pytest.raises(MissingMapError):
            hs.unit_vector(hom3dim)

    def test_counit_map(self, counital2dim):
        assert hs.counit_map(counital2dim).rows == ((F.zero, F.one),)

    def test_counit_absent(self, coalg2dim):
        with pytest.raises(MissingMapError):
            hs.counit_map(coalg2dim)


def test_two_hom_views_materialized_on_demand(ex2):
    view = ex2.view(2, 1)
    assert isinstance(view, hs.HomBialgebra)
    assert view.mu is ex2.mu2
    assert view.delta is ex2.delta1
    with pytest.raises(MissingMapError):
        ex2.view(1, 2)  # no second coproduct on this variant


def test_finding_str_format():
    f = Finding("unit", "defect", "nope")
    assert str(f) == "[defect] unit: nope"
