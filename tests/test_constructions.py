import pytest

import homstruct as hs
from homstruct.constructions import (affine_from_hlsda, assemble_two,
                                     bracket_from_dialgebra, coopposite,
                                     dialgebra_from_differential,
                                     hlsda_from_affine, kaplansky_k1,
                                     kaplansky_k2, leibniz_from_differential,
                                     opposite, tensor_product,
                                     trivial_dialgebra, yau_twist)
from homstruct.errors import ConstructionError, NotEligibleError, ShapeError
from homstruct.linalg import tensors_equal

from conftest import F, lmap, vec


class TestYauTwist:
    def test_scaling_endomorphism_twists_truncated_polynomials(self, kx3):
        alpha = lmap([[1, 0, 0], [0, 2, 0], [0, 0, 4]])
        twisted = yau_twist("algebra", kx3, alpha)
        assert hs.run_check("hom-algebra", twisted).passed
        # x . x picks up the twist: 2 * 2 would be wrong, the image is 4x^2
        assert twisted.mu.c[1][1] == (F.zero, F.zero, F.coerce(4))
        assert twisted.unit is None  # strict unit law does not survive

    def test_identity_twist_is_identity(self, kx3):
        out = yau_twist("algebra", kx3, hs.identity_map(F, 3))
        assert tensors_equal(out.mu, kx3.mu)
        assert out.unit is not None

    def test_conjugation_twist_on_matrices(self, mat2):
        conj = lmap([[1, 0, 0, 0], [0, "1/2", 0, 0], [0, 0, 2, 0],
                     [0, 0, 0, 1]])
        twisted = yau_twist("algebra", mat2, conj)
        assert hs.run_check("hom-algebra", twisted).passed

    def test_sign_twist_on_group_algebra(self, z2group):
        sign = lmap([[1, 0], [0, -1]])
        twisted = yau_twist("algebra", z2group, sign)
        assert hs.run_check("hom-algebra", twisted).passed
        assert twisted.mu.c[1][1] == (F.one, F.zero)
        assert twisted.mu.c[0][1] == (F.zero, F.coerce(-1))

    def test_non_endomorphism_rejected_with_witness(self, kx3):
        broken = lmap([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ConstructionError) as err:
            yau_twist("algebra", kx3, broken)
        assert err.value.verdict is not None
        assert not err.value.verdict.passed

    def test_twisted_input_rejected(self, hom3dim):
        with pytest.raises(ConstructionError):
            yau_twist("algebra", hom3dim, hom3dim.alpha)

    def test_leibniz_twist(self, leibniz2dim):
        alpha = lmap([[2, 0], [0, 4]])
        twisted = yau_twist("leibniz", leibniz2dim, alpha)
        assert hs.run_check("hom-leibniz", twisted).passed
        assert twisted.bracket.c[0][0] == (F.zero, F.coerce(4))

    def test_dialgebra_and_hlsda_twists(self, kx3):
        alpha = lmap([[1, 0, 0], [0, 2, 0], [0, 0, 4]])
        d = trivial_dialgebra(kx3)
        twisted = yau_twist("dialgebra", d, alpha)
        assert hs.run_check("hom-dialgebra", twisted).passed
        s = hs.HLSDA(d.left, d.right, d.alpha)
        twisted_s = yau_twist("hlsda", s, alpha)
        assert hs.run_check("hlsda", twisted_s).passed
        # each two-product record is read as the other kind's record
        assert isinstance(yau_twist("hlsda", d, alpha), hs.HLSDA)
        assert yau_twist("dialgebra", s, alpha) == twisted

    def test_mismatched_kind_raises_shape_error(self, z2group, bool2dim,
                                                dual2dim, leibniz2dim):
        sign = lmap([[1, 0], [0, -1]])
        with pytest.raises(ShapeError):
            yau_twist("leibniz", z2group, sign)
        with pytest.raises(ShapeError):
            yau_twist("algebra", leibniz2dim, hs.identity_map(F, 2))
        # a 2-hom pair of another variant is no 2-hom-associative algebra
        pair = assemble_two("2-2-bialgebra", bool2dim, dual2dim)
        with pytest.raises(ShapeError):
            yau_twist("2-assoc-algebra", pair, hs.identity_map(F, 3))

    def test_two_product_twist(self, bool2dim, dual2dim):
        pair = hs.TwoHomStructure("2-hom-assoc-algebra", bool2dim.mu,
                                  dual2dim.mu, hs.identity_map(F, 2),
                                  vec([1, 0]))
        alpha = lmap([[1, 0], [0, 0]])
        twisted = yau_twist("2-assoc-algebra", pair, alpha)
        assert hs.run_check("2-hom-assoc-algebra", twisted).passed

    def test_functoriality_of_the_twist(self, kx3, dim1):
        # evaluation at zero commutes with the scaling, so it remains a
        # morphism between the twisted structures
        alpha = lmap([[1, 0, 0], [0, 2, 0], [0, 0, 4]])
        ev0 = hs.LinearMap(F, ((F.one, F.zero, F.zero),))
        assert hs.check_morphism(ev0, kx3, dim1).passed
        twisted = yau_twist("algebra", kx3, alpha)
        assert hs.check_morphism(ev0, twisted, dim1).passed


class TestKaplanskyExtensions:
    def test_dimension_bookkeeping(self, kx3, dim1, z2group):
        for a in (kx3, dim1, z2group):
            assert kaplansky_k1(a).dim == a.dim + 1
            assert kaplansky_k2(a).dim == a.dim + 1

    def test_first_extension_coproduct_on_the_ground_field(self, dim1):
        out = kaplansky_k1(dim1)
        # delta(e2) = e2 (x) e1 + e1 (x) e2 - e2 (x) e2
        assert out.delta.d[0] == ((F.one, F.zero), (F.zero, F.zero))
        assert out.delta.d[1] == ((F.zero, F.one), (F.one, F.coerce(-1)))

    def test_degenerate_extensions_coincide(self, dim1):
        k1, k2 = kaplansky_k1(dim1), kaplansky_k2(dim1)
        assert tensors_equal(k1.delta, k2.delta)
        assert tensors_equal(k1.mu, k2.mu)

    def test_old_product_embeds_shifted(self, kx3):
        out = kaplansky_k1(kx3)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert out.mu.c[i + 1][j + 1][k + 1] == kx3.mu.c[i][j][k]
        assert hs.unit_vector(out).coords == (F.one, F.zero, F.zero, F.zero)

    def test_first_extension_passes_both_suites(self, kx3, z2group,
                                                bool2dim, dual2dim):
        for a in (kx3, z2group, bool2dim, dual2dim):
            out = kaplansky_k1(a)
            assert hs.run_check("hom-bialgebra", out).passed
            assert hs.run_check("infinitesimal", out).passed

    def test_second_extension_bialgebra_but_not_infinitesimal(self, kx3):
        out = kaplansky_k2(kx3)
        assert hs.run_check("hom-bialgebra", out).passed
        v = hs.run_check("infinitesimal", out)
        assert not v.passed
        assert v.witnesses[0].axiom == "infinitesimal"

    def test_moved_unit_rejected_by_default(self, unital2dim):
        with pytest.raises(NotEligibleError):
            kaplansky_k1(unital2dim)
        with pytest.raises(NotEligibleError):
            kaplansky_k2(unital2dim)

    def test_case_split_extension_of_the_moved_unit_table(self, unital2dim):
        k1 = kaplansky_k1(unital2dim, allow_ineligible=True)
        assert hs.run_check("hom-bialgebra", k1).passed
        assert hs.run_check("infinitesimal", k1).passed
        k2 = kaplansky_k2(unital2dim, allow_ineligible=True)
        assert hs.run_check("hom-bialgebra", k2).passed
        v = hs.run_check("infinitesimal", k2)
        assert not v.passed
        assert any(w.axiom == "infinitesimal" and w.at == (2, 2)
                   for w in v.witnesses)

    def test_non_basis_unit_allows_k1_but_not_k2(self, mat2):
        out = kaplansky_k1(mat2)
        assert hs.run_check("hom-bialgebra", out).passed
        with pytest.raises(NotEligibleError):
            kaplansky_k2(mat2)

    def test_unitless_input_rejected(self, hom3dim):
        from homstruct.errors import MissingMapError
        with pytest.raises(MissingMapError):
            kaplansky_k1(hom3dim)

    def test_determinism(self, kx3):
        a = kaplansky_k1(kx3)
        b = kaplansky_k1(kx3)
        assert tensors_equal(a.mu, b.mu) and tensors_equal(a.delta, b.delta)
        assert tensors_equal(a.alpha, b.alpha)


class TestAssemblies:
    def test_one_coproduct_assembly(self, bool2dim, dual2dim):
        out = assemble_two("2-assoc-bialgebra-B1", bool2dim, dual2dim)
        assert out.dim == 3
        assert hs.run_check("2-hom-assoc-bialgebra", out).passed

    def test_equal_inputs_degenerate(self, bool2dim):
        out = assemble_two("2-assoc-bialgebra-B1", bool2dim, bool2dim)
        assert hs.run_check("2-hom-assoc-bialgebra", out).passed
        assert tensors_equal(out.mu1, out.mu2)

    def test_two_coproduct_pair(self, bool2dim, dual2dim):
        first, second = assemble_two("2-bialgebras-B1B2", bool2dim, dual2dim)
        for s in (first, second):
            assert hs.run_check("2-hom-bialgebra", s).passed
        assert tensors_equal(second.delta1, coopposite(first.delta1))

    def test_double_two_assembly(self, bool2dim, dual2dim):
        out = assemble_two("2-2-bialgebra", bool2dim, dual2dim)
        assert hs.run_check("2-2-hom-bialgebra", out).passed

    def test_mismatched_twists_rejected(self, bool2dim):
        other = hs.HomAlgebra(bool2dim.mu, lmap([[1, 0], [0, 0]]),
                              bool2dim.unit)
        with pytest.raises(ConstructionError):
            assemble_two("2-assoc-bialgebra-B1", bool2dim, other)

    def test_missing_unit_rejected(self, bool2dim):
        other = hs.HomAlgebra(bool2dim.mu, bool2dim.alpha, None)
        with pytest.raises(ConstructionError):
            assemble_two("2-assoc-bialgebra-B1", bool2dim, other)


class TestTensorAndOpposites:
    def test_tensor_with_the_ground_field_is_identity_like(self, unital2dim,
                                                           dim1):
        out = tensor_product(unital2dim, dim1)
        assert out.dim == unital2dim.dim
        assert tensors_equal(out.mu, unital2dim.mu)
        assert hs.run_check("hom-algebra", out).passed

    def test_square_of_the_unital_table(self, unital2dim):
        out = tensor_product(unital2dim, unital2dim)
        assert out.dim == 4
        assert hs.run_check("hom-algebra", out).passed
        assert out.unit.coords == (F.one, F.zero, F.zero, F.zero)

    def test_units_multiply_factorwise(self, z2group, dim1):
        out = tensor_product(z2group, z2group)
        assert out.unit.coords == (F.one, F.zero, F.zero, F.zero)

    def test_opposite_involutive(self, hom3dim):
        assert tensors_equal(opposite(opposite(hom3dim.mu)), hom3dim.mu)

    def test_opposite_of_commutative_table_is_itself(self, z2group):
        assert tensors_equal(opposite(z2group.mu), z2group.mu)

    def test_coopposite_involutive(self, coalg2dim):
        assert tensors_equal(coopposite(coopposite(coalg2dim.delta)),
                             coalg2dim.delta)

    def test_op_cop_pair_is_a_two_coproduct_structure(self, mat2):
        b = kaplansky_k1(mat2)
        pair = hs.TwoHomStructure("2-hom-bialgebra", b.mu, opposite(b.mu),
                                  b.alpha, b.unit, b.delta,
                                  coopposite(b.delta), b.counit, b.counit)
        v = hs.run_check("2-hom-bialgebra", pair)
        assert v.passed
        assert any(note.name == "type (2-2)" for note in v.info)


class TestDerivedStructures:
    def test_dialgebra_sides_differ_on_the_matrix_fixture(self, ut2):
        d = dialgebra_from_differential(ut2)
        # E11 -| E22 = E11 . d(E22) = E12, while d(E11) . E22 = -E12
        assert d.left.c[0][2] == (F.zero, F.one, F.zero)
        assert d.right.c[0][2] == (F.zero, F.coerce(-1), F.zero)
        assert not tensors_equal(d.left, d.right)
        assert hs.run_check("hom-dialgebra", d).passed

    def test_zero_derivation_gives_zero_products(self, kx3):
        zero = hs.LinearMap(F, ((F.zero,) * 3,) * 3)
        d = dialgebra_from_differential(hs.DifferentialHomAlgebra(kx3, zero))
        assert all(x == F.zero for pl in d.left.c for r in pl for x in r)
        assert hs.run_check("hom-dialgebra", d).passed

    def test_failing_differential_rejected(self, ut2):
        bad = lmap([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ConstructionError):
            dialgebra_from_differential(
                hs.DifferentialHomAlgebra(ut2.algebra, bad))

    def test_leibniz_bracket_from_derivation(self, ut2):
        lb = leibniz_from_differential(ut2)
        assert hs.run_check("hom-leibniz", lb).passed

    def test_commutative_differential_gives_zero_bracket(self, kx3):
        d = lmap([[0, 0, 0], [0, 0, 0], [0, 1, 0]])  # x -> x^2, x^2 -> 0
        lb = leibniz_from_differential(hs.DifferentialHomAlgebra(kx3, d))
        assert all(x == F.zero for pl in lb.bracket.c for r in pl for x in r)

    def test_equal_sided_brackets(self, hom3dim):
        d = trivial_dialgebra(hom3dim)
        aligned = bracket_from_dialgebra(d, "aligned")
        assert all(x == F.zero for pl in aligned.bracket.c
                   for r in pl for x in r)
        loday = bracket_from_dialgebra(d, "loday")
        expected = hs.apply_bilinear(hom3dim.mu, vec([0, 1, 0]),
                                     vec([0, 0, 1]))
        assert loday.bracket.c[1][2] == expected.coords
        assert hs.run_check("hom-leibniz", loday).passed

    def test_aligned_bracket_on_the_matrix_fixture(self, ut2):
        d = dialgebra_from_differential(ut2)
        aligned = bracket_from_dialgebra(d, "aligned")
        # both published bracket readings happen to satisfy the identity here
        assert hs.run_check("hom-leibniz", aligned).passed
        loday = bracket_from_dialgebra(d, "loday")
        assert hs.run_check("hom-leibniz", loday).passed
        assert not tensors_equal(aligned.bracket, loday.bracket)

    def test_unknown_variant_rejected(self, ut2):
        d = dialgebra_from_differential(ut2)
        with pytest.raises(ConstructionError):
            bracket_from_dialgebra(d, "mystery")

    def test_affine_roundtrip_is_identity(self, ut2):
        d = dialgebra_from_differential(ut2)
        s = hs.HLSDA(d.left, d.right, d.alpha)
        aff = affine_from_hlsda(s)
        assert hs.run_check("affine", aff).passed
        back = hlsda_from_affine(aff)
        assert tensors_equal(back.left, s.left)
        assert tensors_equal(back.right, s.right)
        assert tensors_equal(back.alpha, s.alpha)

    def test_affine_reading_checks_left_disymmetry_once(self, ut2,
                                                        monkeypatch):
        from homstruct import constructions
        d = dialgebra_from_differential(ut2)
        s = hs.HLSDA(d.left, d.right, d.alpha)
        expected = affine_from_hlsda(s)
        calls = []
        real = constructions.run_check

        def spy(check_id, *args, **kwargs):
            calls.append(check_id)
            return real(check_id, *args, **kwargs)

        monkeypatch.setattr(constructions, "run_check", spy)
        assert affine_from_hlsda(s) == expected
        assert calls.count("hlsda") == 1

    def test_perturbed_affine_is_refused(self, ut2):
        d = dialgebra_from_differential(ut2)
        aff = affine_from_hlsda(hs.HLSDA(d.left, d.right, d.alpha))
        bad = list(list(list(r) for r in pl) for pl in aff.nabla1.c)
        bad[0][0][0] = F.add(bad[0][0][0], F.one)
        broken = hs.AffineStructure(hs.ProductTensor(F, bad), aff.nabla2,
                                    aff.leibniz)
        with pytest.raises(ConstructionError):
            hlsda_from_affine(broken)

    def test_trivial_dialgebra_requires_a_passing_algebra(self, hom3dim):
        assert hs.run_check("hom-dialgebra", trivial_dialgebra(hom3dim)).passed
        broken = hs.HomAlgebra(hom3dim.mu, hs.identity_map(F, 3))
        with pytest.raises(ConstructionError):
            trivial_dialgebra(broken)

    def test_trivial_dialgebra_is_also_left_disymmetric(self, hom3dim):
        d = trivial_dialgebra(hom3dim)
        assert hs.run_check("hlsda", hs.HLSDA(d.left, d.right, d.alpha)).passed


@pytest.mark.parametrize("verb,inputs", [
    ("nope", 1), ("tensor", 1), ("k1", 2), ("twist", 1)],
    ids=["unknown-verb", "too-few", "too-many", "twist-without-map"])
def test_construct_refuses_with_a_shape_error(verb, inputs, kx3):
    with pytest.raises(ShapeError):
        hs.construct(verb, [kx3] * inputs)
