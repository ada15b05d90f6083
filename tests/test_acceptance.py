"""Acceptance suite: the ten exit criteria, one test each.

Every criterion prints a single PASS/FAIL line (run with ``pytest -s``
to see them) and asserts exactly what it printed. All comparisons are
exact; there are no tolerances anywhere.
"""

import itertools

import pytest

import homstruct as hs
from homstruct.axioms import run_check
from homstruct.constructions import (assemble_two, bracket_from_dialgebra,
                                     dialgebra_from_differential,
                                     kaplansky_k1, kaplansky_k2,
                                     leibniz_from_differential, yau_twist)
from homstruct.corpus import DATA_DIR, corpus_run, load_expected, load_fixture
from homstruct.documents import document_to_morphism, load_path
from homstruct.linalg import apply_bilinear, basis_vector, tensors_equal
from homstruct.oracle import oracle_crosscheck
from homstruct.search import SearchSpec, audit_inclusion, enumerate_structures


def record(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def fixtures():
    names = [p.stem for p in DATA_DIR.glob("*.json")
             if p.name != "expected.json"]
    return {name: load_fixture(f"{name}.json") for name in names}


def classical_associativity_gap(a):
    """Direct classical check, independent of the axiom suite: the first
    basis triple where (xy)z differs from x(yz), or None."""
    n, f = a.dim, a.field
    basis = [basis_vector(f, n, i) for i in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        left = apply_bilinear(a.mu, apply_bilinear(a.mu, basis[i], basis[j]),
                              basis[k])
        right = apply_bilinear(a.mu, basis[i],
                               apply_bilinear(a.mu, basis[j], basis[k]))
        if not tensors_equal(left, right):
            return (i, j, k)
    return None


def test_criterion_1_reduction_to_classical(fixtures):
    classical = ("mat2", "kx3", "z2group", "trivial2dim")
    ok = True
    for name in classical:
        a = fixtures[name]
        assert a.alpha.is_identity()
        hom_passes = hs.run_check("hom-algebra", a).passed
        classically_associative = classical_associativity_gap(a) is None
        ok = ok and hom_passes == classically_associative == True  # noqa: E712
    # contra case: a table that is not associative fails the checker with
    # the identity twist and passes with its published twist
    twisted_table = fixtures["hom3dim_ab"]
    plain = hs.HomAlgebra(twisted_table.mu,
                          hs.identity_map(twisted_table.field, 3))
    ok = ok and classical_associativity_gap(plain) == (0, 0, 2)
    ok = ok and not hs.run_check("hom-algebra", plain).passed
    ok = ok and hs.run_check("hom-algebra", twisted_table).passed
    record(1, ok, "identity-twist checkers agree with direct classical "
                  "evaluation on all four classical fixtures")


def test_criterion_2_twist_conformance(fixtures):
    pairs = (("kx3", "kx3_twist2"), ("mat2", "mat2_twist_conj"),
             ("z2group", "z2group_twist_sign"))
    ok = True
    for classical_name, twisted_name in pairs:
        classical = fixtures[classical_name]
        committed = fixtures[twisted_name]
        rebuilt = yau_twist("algebra", classical, committed.alpha)
        ok = ok and tensors_equal(rebuilt.mu, committed.mu)
        ok = ok and hs.run_check("hom-algebra", committed).passed
    morphisms = load_expected()["morphisms"]
    ok = ok and len(morphisms) >= 3
    for row in morphisms:
        f, _, _ = document_to_morphism(load_path(DATA_DIR / row["file"]))
        ok = ok and hs.check_morphism(f, fixtures[row["source"]],
                                      fixtures[row["target"]]).passed
        ok = ok and hs.check_morphism(f, fixtures[row["twisted-source"]],
                                      fixtures[row["twisted-target"]]).passed
    record(2, ok, "all three twisted fixtures pass and every bundled "
                  "morphism still intertwines after twisting")


def test_criterion_3_first_extension(fixtures):
    eligible = [name for name, s in fixtures.items()
                if getattr(s, "unit", None) is not None
                and hs.is_unit_extension_eligible(s)]
    eligible.append("ut2")  # the unital algebra under the differential
    results = []
    for name in sorted(set(eligible)):
        s = fixtures[name]
        if name == "ut2":
            s = s.algebra
        out = kaplansky_k1(s)
        results.append(hs.run_check("hom-bialgebra", out).passed
                       and hs.run_check("infinitesimal", out).passed)
    ok = len(results) >= 6 and all(results)
    record(3, ok, f"first unit-adjoining extension passes both suites on "
                  f"all {len(results)} eligible corpus algebras")


def test_criterion_4_second_extension(fixtures):
    out = kaplansky_k2(fixtures["unital2dim"], allow_ineligible=True)
    bialgebra_ok = hs.run_check("hom-bialgebra", out).passed
    verdict = hs.run_check("infinitesimal", out)
    witnesses = [w for w in verdict.witnesses if w.axiom == "infinitesimal"]
    ok = bialgebra_ok and not verdict.passed and len(witnesses) >= 1
    record(4, ok, "second extension of the 2-dim unital fixture is a "
                  "bialgebra but fails the infinitesimal relation "
                  f"(witness at {witnesses[0].at if witnesses else '-'})")


def test_criterion_5_assemblies(fixtures):
    pairs = ((fixtures["bool2dim"], fixtures["dual2dim"]),
             (fixtures["bool2dim"], fixtures["bool2dim"]))
    ok = True
    for a, b in pairs:
        b1 = assemble_two("2-assoc-bialgebra-B1", a, b)
        ok = ok and hs.run_check("2-hom-assoc-bialgebra", b1).passed
        first, second = assemble_two("2-bialgebras-B1B2", a, b)
        ok = ok and hs.run_check("2-hom-bialgebra", first).passed
        ok = ok and hs.run_check("2-hom-bialgebra", second).passed
        b22 = assemble_two("2-2-bialgebra", a, b)
        ok = ok and hs.run_check("2-2-hom-bialgebra", b22).passed
        ok = ok and b1.dim == a.dim + 1
    record(5, ok, "all three assemblies pass their composite checks on "
                  "both eligible corpus pairs")


def test_criterion_6_dialgebras_inside_left_disymmetric(fixtures):
    corpus_dialgebras = [fixtures["trivdialg3dim"],
                         dialgebra_from_differential(fixtures["ut2"])]
    ok = all(hs.run_check("hom-dialgebra", d).passed
             and hs.run_check("hlsda", hs.HLSDA(d.left, d.right,
                                               d.alpha)).passed
             for d in corpus_dialgebras)
    sweep = audit_inclusion("hom-dialgebra", "hlsda", 2, 2)
    ok = ok and sweep.violations == 0 and sweep.count > 0
    reverse = audit_inclusion("hlsda", "hom-dialgebra", 2, 2)
    ok = ok and reverse.violations >= 1
    ok = ok and hs.run_check("hlsda", reverse.example).passed
    ok = ok and not hs.run_check("hom-dialgebra", 
        hs.HomDialgebra(reverse.example.left, reverse.example.right,
                        reverse.example.alpha)).passed
    record(6, ok, f"exhaustive GF(2) dim-2 sweep: all {sweep.count} "
                  f"dialgebras are left-disymmetric; {reverse.violations} "
                  "left-disymmetric structures are not dialgebras")


def test_criterion_7_bracket_theorems(fixtures):
    ut2 = fixtures["ut2"]
    d = dialgebra_from_differential(ut2)
    corpus_hlsdas = (hs.HLSDA(d.left, d.right, d.alpha),
                     hs.HLSDA(fixtures["trivdialg3dim"].left,
                              fixtures["trivdialg3dim"].right,
                              fixtures["trivdialg3dim"].alpha))
    ok = True
    for s in corpus_hlsdas:
        loday = bracket_from_dialgebra(
            hs.HomDialgebra(s.left, s.right, s.alpha), "loday")
        ok = ok and hs.run_check("hom-leibniz", loday).passed
    ok = ok and hs.run_check("hom-leibniz",
                             leibniz_from_differential(ut2)).passed
    # the aligned-variant verdict is recorded in the corpus with the
    # discrepancy annotation and must match live evaluation
    table = load_expected()
    row = next(e for e in table["entries"]
               if e["name"] == "ut2-bracket-aligned")
    ok = ok and any(a.startswith("paper-discrepancy")
                    for a in row.get("annotations", []))
    recorded = next(c["status"] for c in row["checks"]
                    if c["check"] == "hom-leibniz")
    live = hs.run_check("hom-leibniz", 
        bracket_from_dialgebra(d, "aligned")).status
    ok = ok and recorded == live
    record(7, ok, f"loday brackets pass everywhere; the aligned variant's "
                  f"recorded verdict ({recorded}) matches evaluation")


def test_criterion_8_oracle_agreement(fixtures):
    table = load_expected()
    from homstruct.corpus import _derive
    resolved = {}
    checked = 0
    ok = True
    for entry in table["entries"]:
        if "fixture" in entry:
            s = fixtures[entry["name"]]
        else:
            s = _derive(entry["derive"], resolved)
        resolved[entry["name"]] = s
        for check_spec in entry.get("checks", []):
            verdict = run_check(check_spec["check"], s)
            for seed in (0, 1):
                res = oracle_crosscheck(s, check_spec["check"], samples=100,
                                        seed=seed, verdict=verdict)
                ok = ok and res.agreed
                checked += 1
    record(8, ok, f"{checked} hundred-sample cross-checks agree with their "
                  "basis verdicts under both seeds")


def test_criterion_9_enumeration_counts():
    two = enumerate_structures(SearchSpec("hom-algebra", 1, 2, cap=8))
    three = enumerate_structures(SearchSpec("hom-algebra", 1, 3, cap=12))
    ok = two.count == 4 and three.count == 7
    spec = SearchSpec("hom-algebra", 2, 2, cap=4096)
    first = enumerate_structures(spec)
    second = enumerate_structures(spec)
    ok = ok and first.count == second.count
    ok = ok and [s.mu.c for s in first.structures] == \
        [s.mu.c for s in second.structures]
    ok = ok and [s.alpha.rows for s in first.structures] == \
        [s.alpha.rows for s in second.structures]
    audit1 = audit_inclusion("hom-dialgebra", "hlsda", 2, 2)
    audit2 = audit_inclusion("hom-dialgebra", "hlsda", 2, 2)
    ok = ok and (audit1.count, audit1.violations) == \
        (audit2.count, audit2.violations)
    record(9, ok, f"counts 4 and 7 confirmed; GF(2) dim-2 runs identical "
                  f"across two executions ({first.count} structures, "
                  f"{audit1.count} dialgebras)")


def test_criterion_10_discrepancy_regression():
    outcome = corpus_run(samples=20, seed=0)
    ok = outcome.ok
    table = load_expected()
    ex1 = next(e for e in table["entries"] if e["name"] == "ex1")
    ok = ok and any(a.startswith("paper-discrepancy")
                    for a in ex1["annotations"])
    by_check = {c["check"]: c for c in ex1["checks"]}
    ok = ok and by_check["hom-bialgebra"]["status"] == "fail"
    failing = set(by_check["hom-bialgebra"]["failing"])
    ok = ok and {"comultiplicativity", "counit-twist-invariance"} <= failing
    ok = ok and by_check["infinitesimal"]["status"] == "fail"
    ok = ok and "infinitesimal" in set(by_check["infinitesimal"]["failing"])
    # reproducible witness: the checker pins the same tuple every run
    import homstruct as hs_mod
    from homstruct.corpus import load_fixture as lf
    ex1_structure = lf("ex1.json")
    w1 = hs_mod.run_check("infinitesimal", ex1_structure).witnesses
    w2 = hs_mod.run_check("infinitesimal", ex1_structure).witnesses
    ok = ok and [(w.axiom, w.at) for w in w1] == [(w.axiom, w.at) for w in w2]
    record(10, ok, "corpus flags the published 2-dim bialgebra claim as "
                   "expected-fail with reproducible witnesses")
