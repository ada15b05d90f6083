from dataclasses import replace

import pytest

import homstruct as hs
from homstruct import corpus
from homstruct.axioms import (CHECK_IDS, coerce_for_check, default_check,
                              run_suite, suite_for)
from homstruct.constructions import (bracket_from_dialgebra,
                                     dialgebra_from_differential,
                                     leibniz_from_differential,
                                     trivial_dialgebra)
from homstruct.errors import HomstructError, ShapeError
from homstruct.linalg import tensors_equal
from homstruct.structures import KINDS

from conftest import F, coproduct, lmap, product, vec


class TestHomAlgebra:
    def test_paper_table_passes(self, hom3dim):
        assert hs.run_check("hom-algebra", hom3dim).passed

    def test_classical_fixtures_pass(self, kx3, mat2, z2group, dim1):
        for a in (kx3, mat2, z2group, dim1):
            assert hs.run_check("hom-algebra", a).passed

    def test_untwisted_table_fails_with_exact_witness(self, hom3dim):
        plain = hs.HomAlgebra(hom3dim.mu, hs.identity_map(F, 3))
        v = hs.run_check("hom-algebra", plain)
        assert not v.passed
        w = v.witnesses[0]
        assert (w.axiom, w.at) == ("hom-associativity", (0, 0, 2))
        # nesting on the right gives 4*e3, on the left 2*e3: gap -2*e3
        assert w.lhs.coords == vec([0, 0, 4]).coords
        assert w.rhs.coords == vec([0, 0, 2]).coords

    def test_unit_axiom_checked_when_declared(self, unital2dim):
        v = hs.run_check("hom-algebra", unital2dim)
        assert v.passed
        assert "unit-left" in v.checked and "unit-right" in v.checked


class TestHomCoalgebra:
    def test_coalgebra_example_passes(self, coalg2dim):
        assert hs.run_check("hom-coalgebra", coalg2dim).passed

    def test_counital_example_passes_both_modes(self, counital2dim):
        for mode in ("eq7", "eq8"):
            assert hs.run_check("hom-coalgebra", counital2dim,
                                counit_mode=mode).passed

    def test_swapped_counit_fails_at_e1(self, coalg2dim):
        swapped = hs.HomCoalgebra(coalg2dim.delta, coalg2dim.alpha,
                                  lmap([[1, 0]]))
        v = hs.run_check("hom-coalgebra", swapped)
        assert not v.passed
        w = next(x for x in v.witnesses if x.axiom == "counit-left")
        assert w.at == (0,)
        assert w.lhs.coords == vec([0, 0]).coords   # contraction kills it
        assert w.rhs.coords == vec([0, 1]).coords   # twist squared gives e2

    def test_bad_mode_rejected(self, counital2dim):
        with pytest.raises(ValueError):
            hs.run_check("hom-coalgebra", counital2dim, counit_mode="eq9")


class TestBialgebraChecks:
    def test_dim1_bialgebra_passes_everything(self, dim1):
        delta = coproduct(1, {(0, 0, 0): 1})
        b = hs.HomBialgebra(dim1.mu, vec([1]), delta, lmap([[1]]),
                            hs.identity_map(F, 1))
        assert hs.run_check("bialgebra-compat", b).passed
        assert hs.run_check("hom-bialgebra", b).passed
        assert hs.run_check("infinitesimal", b).passed

    def test_published_2dim_claim_fails_compat(self, ex1):
        v = hs.run_check("bialgebra-compat", ex1)
        assert sorted(v.failing_axioms()) == ["comultiplicativity",
                                              "counit-twist-invariance"]
        w = next(x for x in v.witnesses if x.axiom == "comultiplicativity")
        # twisting the legs lands on e2 (x) e2 while the coproduct of the
        # twisted argument stays at e1 (x) e1
        assert w.lhs.entries == ((F.zero, F.zero), (F.zero, F.one))
        assert w.rhs.entries == ((F.one, F.zero), (F.zero, F.zero))

    def test_published_2dim_claim_fails_infinitesimal(self, ex1):
        v = hs.run_check("infinitesimal", ex1)
        w = next(x for x in v.witnesses if x.axiom == "infinitesimal")
        assert w.at == (0, 0)
        assert w.lhs.entries == ((F.one, F.zero), (F.zero, F.zero))
        assert w.rhs.entries == ((F.zero, F.zero), (F.zero, F.one))

    def test_full_suite_includes_algebra_side(self, ex1):
        v = hs.run_check("hom-bialgebra", ex1)
        assert "multiplicativity" in v.checked
        assert "hom-associativity" in v.checked
        assert sorted(v.failing_axioms()) == [
            "comultiplicativity", "counit-twist-invariance",
            "hom-coassociativity"]


class TestDialgebra:
    def test_trivial_dialgebra_passes(self, hom3dim):
        assert hs.run_check("hom-dialgebra", trivial_dialgebra(hom3dim)).passed

    def test_derived_dialgebra_passes(self, ut2):
        d = dialgebra_from_differential(ut2)
        assert hs.run_check("hom-dialgebra", d).passed

    def test_swapping_the_products_breaks_middle_exchange(self):
        # over GF(2): e2 -| e2 = e2; e2 |- e1 = e1, e2 |- e2 = e2
        gf = hs.PrimeField(2)
        left = hs.ProductTensor(gf, (((0, 0), (0, 0)), ((0, 0), (0, 1))))
        right = hs.ProductTensor(gf, (((0, 0), (0, 0)), ((1, 0), (0, 1))))
        d = hs.HomDialgebra(left, right, hs.identity_map(gf, 2))
        assert hs.run_check("hom-dialgebra", d).passed
        swapped = hs.HomDialgebra(d.right, d.left, d.alpha)
        v = hs.run_check("hom-dialgebra", swapped)
        assert not v.passed
        assert "middle-exchange" in v.failing_axioms()

    def test_swapping_equal_sided_fixture_changes_nothing(self, ut2):
        # on this fixture all products of derivation images vanish, so the
        # swapped pair still satisfies every axiom
        d = dialgebra_from_differential(ut2)
        swapped = hs.HomDialgebra(d.right, d.left, d.alpha)
        assert hs.run_check("hom-dialgebra", swapped).passed

    def test_strict_mode_demands_plain_associativity(self, hom3dim):
        d = trivial_dialgebra(hom3dim)
        assert hs.run_check("hom-dialgebra", d, strict_assoc=False).passed
        v = hs.run_check("hom-dialgebra", d, strict_assoc=True)
        assert not v.passed
        assert "associativity" in v.failing_axioms()

    def test_strict_mode_on_classical_input(self, ut2):
        d = dialgebra_from_differential(ut2)
        assert hs.run_check("hom-dialgebra", d, strict_assoc=True).passed


class TestDifferential:
    def test_inner_derivation_fixture_passes(self, ut2):
        assert hs.run_check("differential", ut2).passed

    def test_zero_derivation_passes(self, kx3):
        zero = hs.LinearMap(F, ((F.zero,) * 3,) * 3)
        assert hs.run_check("differential", 
            hs.DifferentialHomAlgebra(kx3, zero)).passed

    def test_broken_derivation_fails_product_rule(self, ut2):
        bad = lmap([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        v = hs.run_check("differential",
                         hs.DifferentialHomAlgebra(ut2.algebra, bad))
        w = next(x for x in v.witnesses if x.axiom == "derivation-rule")
        assert w.at == (0, 0)
        assert w.lhs.coords == vec([1, 0, 0]).coords
        assert w.rhs.coords == vec([2, 0, 0]).coords


class TestLeibniz:
    def test_differential_bracket_passes(self, ut2):
        lb = leibniz_from_differential(ut2)
        v = hs.run_check("hom-leibniz", lb)
        assert v.passed
        notes = {note.name: note.holds for note in v.info}
        assert notes["bracket-multiplicativity"] is True
        # [E11, E11] = -E12, so self-brackets do not vanish: info only
        assert notes["self-bracket-zero"] is False

    def test_zero_bracket_passes(self):
        zero = hs.HomLeibniz(product(2, {}), hs.identity_map(F, 2))
        assert hs.run_check("hom-leibniz", zero).passed

    def test_loday_bracket_of_derived_dialgebra_passes(self, ut2):
        d = dialgebra_from_differential(ut2)
        assert hs.run_check("hom-leibniz",
                            bracket_from_dialgebra(d, "loday")).passed

    def test_smallest_nonskew_bracket_passes(self, leibniz2dim):
        assert hs.run_check("hom-leibniz", leibniz2dim).passed


class TestPreLie:
    def test_any_passing_algebra_is_prelie(self, hom3dim, kx3):
        for a in (hom3dim, kx3):
            assert hs.run_check("hom-prelie",
                                hs.HomPreLie(a.mu, a.alpha)).passed

    def test_commutative_identity_twist_passes(self, z2group):
        assert hs.run_check("hom-prelie", 
            hs.HomPreLie(z2group.mu, z2group.alpha)).passed

    def test_nonsymmetric_associator_fails_with_witness(self):
        p = hs.HomPreLie(product(2, {(0, 1, 0): 1}), hs.identity_map(F, 2))
        v = hs.run_check("hom-prelie", p)
        assert not v.passed
        w = v.witnesses[0]
        assert w.axiom == "left-symmetry"
        assert w.at == (0, 1, 1)


class TestHlsda:
    def test_any_dialgebra_is_left_disymmetric(self, ut2, hom3dim):
        for d in (dialgebra_from_differential(ut2),
                  trivial_dialgebra(hom3dim)):
            assert hs.run_check("hlsda",
                                hs.HLSDA(d.left, d.right, d.alpha)).passed

    def test_algebra_with_equal_products_is_left_disymmetric(self, hom3dim):
        s = hs.HLSDA(hom3dim.mu, hom3dim.mu, hom3dim.alpha)
        assert hs.run_check("hlsda", s).passed

    def test_left_symmetric_non_associative_separates_the_classes(self):
        # e2 . e1 = e1, all other products zero: left-symmetric but the
        # product is not (twisted-)associative
        mu = product(2, {(1, 0, 0): 1})
        s = hs.HLSDA(mu, mu, hs.identity_map(F, 2))
        assert hs.run_check("hlsda", s).passed
        d = hs.HomDialgebra(mu, mu, hs.identity_map(F, 2))
        v = hs.run_check("hom-dialgebra", d)
        assert not v.passed
        assert "hom-associativity" in v.failing_axioms()


class TestAffine:
    def test_reading_a_dialgebra_as_affine_passes(self, ut2):
        d = dialgebra_from_differential(ut2)
        bracket = bracket_from_dialgebra(d, "loday")
        aff = hs.AffineStructure(d.right, d.left, bracket)
        assert hs.run_check("affine", aff).passed

    def test_zero_affine_over_zero_bracket_passes(self):
        zero = product(2, {})
        aff = hs.AffineStructure(zero, zero,
                                 hs.HomLeibniz(zero, hs.identity_map(F, 2)))
        assert hs.run_check("affine", aff).passed

    def test_perturbed_map_fails(self, ut2):
        d = dialgebra_from_differential(ut2)
        bracket = bracket_from_dialgebra(d, "loday")
        bad = list(list(list(r) for r in pl) for pl in d.right.c)
        bad[0][0][0] = F.add(bad[0][0][0], F.one)
        aff = hs.AffineStructure(hs.ProductTensor(F, bad), d.left, bracket)
        assert not hs.run_check("affine", aff).passed


class TestMorphism:
    def test_identity_always_passes(self, hom3dim, unital2dim):
        for s in (hom3dim, unital2dim):
            f = hs.identity_map(F, s.dim)
            assert hs.check_morphism(f, s, s).passed

    def test_twist_map_is_an_endomorphism(self, hom3dim):
        assert hs.check_morphism(hom3dim.alpha, hom3dim, hom3dim).passed

    def test_flip_fails_on_unital_table(self, unital2dim):
        flip = lmap([[0, 1], [1, 0]])
        v = hs.check_morphism(flip, unital2dim, unital2dim)
        assert not v.passed
        axioms = set(v.failing_axioms())
        assert "product-intertwine" in axioms
        assert "twist-intertwine" in axioms

    def test_kind_mismatch_rejected(self, hom3dim, coalg2dim):
        with pytest.raises(ShapeError):
            hs.check_morphism(hs.identity_map(F, 2), coalg2dim, hom3dim)


class TestComposite:
    def test_two_product_claim_fails_only_on_second_product(self, twohom2dim):
        v = hs.run_check("2-hom-assoc-algebra", twohom2dim)
        assert {w.key for w in v.witnesses} == {"mu2/multiplicativity",
                                                "mu2/hom-associativity"}

    def test_witnesses_union_of_constituents(self, twohom2dim):
        v = hs.run_check("2-hom-assoc-algebra", twohom2dim)
        mu2 = hs.HomAlgebra(twohom2dim.mu2, twohom2dim.alpha, twohom2dim.unit)
        sub = hs.run_check("hom-algebra", mu2)
        assert len(v.witnesses) == len(sub.witnesses)
        assert {(w.axiom, w.at) for w in v.witnesses} == \
            {(w.axiom, w.at) for w in sub.witnesses}

    def test_bialgebra_doubles_as_type_11_pair(self, dim1):
        delta = coproduct(1, {(0, 0, 0): 1})
        b = hs.HomBialgebra(dim1.mu, vec([1]), delta, lmap([[1]]),
                            hs.identity_map(F, 1))
        v = hs.run_check("2-hom-bialgebra", b)
        assert v.passed
        assert any(note.name == "type (1-1)" for note in v.info)

    def test_kind_mismatch_raises(self, twohom2dim):
        with pytest.raises(ShapeError):
            hs.run_check("2-hom-bialgebra", twohom2dim)


@pytest.fixture(scope="module")
def corpus_rows():
    """Every structure row of the bundled corpus, by name."""
    rows = {}
    for entry in corpus.load_expected()["entries"]:
        rows[entry["name"]] = (corpus.load_fixture(entry["fixture"])
                               if "fixture" in entry
                               else corpus._derive(entry["derive"], rows))
    return rows


class TestCheckTable:
    def test_checked_keys_are_the_suite_keys(self, corpus_rows):
        ran = 0
        for name, s in corpus_rows.items():
            for check_id in CHECK_IDS:
                try:
                    coerce_for_check(check_id, s)
                except ShapeError:
                    continue
                keys = []
                for t in suite_for(check_id, s):
                    if t.key not in keys:
                        keys.append(t.key)
                v = hs.run_check(check_id, s, witness_cap=10 ** 6)
                assert list(v.checked) == keys, (name, check_id)
                ran += 1
        assert ran > len(corpus_rows)

    def test_composites_cap_each_constituent(self, corpus_rows):
        def assert_slices(v, parts):
            # each part's slice of the composite is the constituent's own
            # verdict, its witnesses and keys under the part's label
            for label, part in parts:
                prefix = label + "/"
                witnesses = tuple(w for w in v.witnesses
                                  if w.where.startswith(prefix)
                                  or w.where == label)
                checked = tuple(c for c in v.checked
                                if c.startswith(prefix))
                assert witnesses == tuple(
                    replace(w, where=f"{label}/{w.where}" if w.where
                            else label) for w in part.witnesses)
                assert checked == tuple(prefix + c for c in part.checked)
                assert tuple(n for n in v.info if n.name.startswith(prefix)) \
                    == tuple(replace(n, name=prefix + n.name)
                             for n in part.info)
            # and the slices are the whole verdict
            assert len(v.witnesses) == sum(len(p.witnesses) for _, p in parts)
            assert len(v.checked) == sum(len(p.checked) for _, p in parts)
            assert v.truncated == any(part.truncated for _, part in parts)

        ex2 = corpus_rows["ex2"]
        v = hs.run_check("2-hom-assoc-bialgebra", ex2)
        assert_slices(v, [
            ("mu1+delta", hs.run_check("hom-bialgebra", ex2.view(1, 1))),
            ("mu2+delta", hs.run_check("infinitesimal", ex2.view(2, 1)))])
        assert len(v.witnesses) == 18

        pair = corpus_rows["ex2-as-2-hom-bialgebra"]
        v = hs.run_check("2-hom-bialgebra", pair)
        assert_slices(v, [
            (f"mu{i}+delta{j}", hs.run_check("hom-bialgebra", pair.view(i, j)))
            for i in (1, 2) for j in (1, 2)])
        assert len(v.witnesses) == 32
        # one shared cap over the concatenated suite would cut it short
        shared = run_suite(pair.dim, pair.field,
                           suite_for("2-hom-bialgebra", pair))
        assert len(shared.witnesses) == 16

    def test_every_refusal_is_a_domain_error(self, corpus_rows):
        refused = 0
        for s in corpus_rows.values():
            for check_id in CHECK_IDS:
                try:
                    hs.run_check(check_id, s)
                except HomstructError:
                    refused += 1
        assert refused > 0

    def test_every_kind_has_one_default_check(self):
        defaults = {kind: default_check(record.from_sections(kind, {}))
                    for kind, (record, _, _) in KINDS.items()}
        assert defaults == {
            **{kind: kind for kind in KINDS if kind in CHECK_IDS},
            "differential-hom-algebra": "differential",
            "affine-hom-leibniz": "affine"}

    def test_canonical_readings(self, corpus_rows):
        hom3 = corpus_rows["hom3dim_ab"]
        assert hs.run_check("hom-prelie", hom3) == \
            hs.run_check("hom-prelie", hs.HomPreLie(hom3.mu, hom3.alpha))
        ex1 = corpus_rows["ex1"]
        assert hs.run_check("hom-algebra", ex1) == \
            hs.run_check("hom-algebra", ex1.algebra())
        assert hs.run_check("hom-coalgebra", ex1) == \
            hs.run_check("hom-coalgebra", ex1.coalgebra())


class TestVerdictMechanics:
    def test_witness_soundness_reevaluates_to_inequality(self, ex1):
        from homstruct.linalg import basis_vector
        v = hs.run_check("hom-bialgebra", ex1)
        tests = {(t.axiom, t.where): t
                 for t in suite_for("hom-bialgebra", ex1)}
        basis = [basis_vector(F, ex1.dim, i) for i in range(ex1.dim)]
        for w in v.witnesses:
            t = tests[(w.axiom, w.where)]
            lhs, rhs = t.evaluate(*(basis[i] for i in w.at))
            assert not tensors_equal(lhs, rhs)
            assert tensors_equal(lhs, w.lhs)
            assert tensors_equal(rhs, w.rhs)

    def test_witness_cap_truncates(self):
        # every product lands on e2 while the twist doubles e1, so
        # multiplicativity fails at the five pairs touching e1
        mu = product(3, {(i, j, 1): 1 for i in range(3) for j in range(3)})
        alpha = lmap([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        bad = hs.HomAlgebra(mu, alpha)
        v = hs.run_check("hom-algebra", bad, witness_cap=4)
        assert len(v.witnesses) == 4
        assert v.truncated
        full = hs.run_check("hom-algebra", bad, witness_cap=100)
        # 5 multiplicativity pairs plus 12 associativity triples touch e1
        assert len(full.witnesses) == 17
        assert not full.truncated

    def test_deterministic_witness_order(self, ex1):
        a = hs.run_check("hom-bialgebra", ex1)
        b = hs.run_check("hom-bialgebra", ex1)
        assert [(w.axiom, w.at) for w in a.witnesses] == \
            [(w.axiom, w.at) for w in b.witnesses]

    def test_run_check_dispatch_matches_direct_calls(self, hom3dim, ex1):
        assert hs.run_check("hom-algebra", hom3dim).passed == \
            hs.run_check("hom-algebra", hom3dim).passed
        assert hs.run_check("infinitesimal", ex1).status == \
            hs.run_check("infinitesimal", ex1).status
        with pytest.raises(ValueError):
            hs.run_check("nonsense", hom3dim)


class TestClassicalReduction:
    """With the identity twist every checker reduces to the classical axiom."""

    def test_associative_iff_hom_associative(self, kx3, mat2, z2group):
        for a in (kx3, mat2, z2group):
            hom = hs.run_check("hom-algebra", a).passed
            strict = hs.run_check("hom-dialgebra", trivial_dialgebra(a),
                                        strict_assoc=True).passed
            assert hom and strict

    def test_nonassociative_table_fails_both_ways(self, hom3dim):
        plain = hs.HomAlgebra(hom3dim.mu, hs.identity_map(F, 3))
        assert not hs.run_check("hom-algebra", plain).passed

    def test_trivial_algebra_passes(self):
        zero = hs.HomAlgebra(product(2, {}), hs.identity_map(F, 2))
        assert hs.run_check("hom-algebra", zero).passed
