#!/usr/bin/env python3
"""Regenerate the bundled corpus fixtures and the expected-verdict table.

Every fixture is built programmatically; the expected verdicts are
re-derived from the checkers, but the rows that matter are hard-asserted
against independently derived values first, so this script cannot
silently absorb a regression. Run from the repository root:

    python scripts/make_corpus.py

``main(out_dir)`` writes the same files under another directory; the
test suite regenerates the corpus that way and compares it byte for byte
with the bundled one.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import homstruct as hs
from homstruct import documents
from homstruct.corpus import _derive
from homstruct.oracle import oracle_crosscheck

OUT = Path(__file__).resolve().parent.parent / "src/homstruct/corpus_data"
F = hs.QQ
Z, ONE = F.zero, F.one


def product(n, entries):
    c = [[[Z] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), val in entries.items():
        c[i][j][k] = F.coerce(val)
    return hs.ProductTensor(F, c)


def coproduct(n, entries):
    d = [[[Z] * n for _ in range(n)] for _ in range(n)]
    for (k, i, j), val in entries.items():
        d[k][i][j] = F.coerce(val)
    return hs.CoproductTensor(F, d)


def lmap(rows):
    return hs.LinearMap(F, tuple(tuple(F.coerce(x) for x in row) for row in rows))


def vec(coords):
    return hs.Vector(F, tuple(F.coerce(x) for x in coords))


def fixtures():
    out = {}

    # three-dimensional twisted-associative example, parameters a=1, b=2
    mu3 = product(3, {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                      (1, 2, 2): 2, (0, 2, 2): 2, (2, 0, 2): 2})
    alpha3 = lmap([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    out["hom3dim_ab"] = hs.HomAlgebra(mu3, alpha3)

    # two-dimensional unital example: e1 unit, everything else lands on e2
    mu2u = product(2, {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    collapse = lmap([[0, 0], [1, 1]])
    out["unital2dim"] = hs.HomAlgebra(mu2u, collapse, vec([1, 0]))

    # coalgebra examples on the same space
    delta22 = coproduct(2, {(0, 1, 1): 1, (1, 1, 1): 1})
    out["coalg2dim"] = hs.HomCoalgebra(delta22, collapse)
    out["counital2dim"] = hs.HomCoalgebra(delta22, collapse, lmap([[0, 1]]))

    # claimed two-dimensional bialgebra (fails several identities)
    delta11 = coproduct(2, {(0, 0, 0): 1, (1, 0, 0): 1})
    eps10 = lmap([[1, 0]])
    out["ex1"] = hs.HomBialgebra(mu2u, vec([1, 0]), delta11, eps10, collapse)

    # claimed two-product structure (second product fails)
    mu2b = product(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    out["twohom2dim"] = hs.TwoHomStructure("2-hom-assoc-algebra", mu2u, mu2b,
                                           collapse, vec([1, 0]))
    out["ex2"] = hs.TwoHomStructure("2-hom-assoc-bialgebra", mu2u, mu2b,
                                    collapse, vec([1, 0]), delta1=delta11,
                                    counit1=eps10)

    # trivial dialgebra over the 3-dim example
    out["trivdialg3dim"] = hs.HomDialgebra(mu3, mu3, alpha3)

    # upper-triangular 2x2 matrices with the inner derivation by E12
    # basis: E11, E12, E22
    mu_ut = product(3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1})
    d_ut = lmap([[0, 0, 0], [-1, 0, 1], [0, 0, 0]])
    out["ut2"] = hs.DifferentialHomAlgebra(
        hs.HomAlgebra(mu_ut, hs.identity_map(F, 3), vec([1, 0, 1])), d_ut)

    # truncated polynomials: basis 1, x, x^2 with x^3 = 0
    mu_kx3 = product(3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                         (0, 2, 2): 1, (2, 0, 2): 1, (1, 1, 2): 1})
    out["kx3"] = hs.HomAlgebra(mu_kx3, hs.identity_map(F, 3), vec([1, 0, 0]))
    scale124 = lmap([[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    out["kx3_twist2"] = hs.yau_twist("algebra", out["kx3"], scale124)

    # full 2x2 matrices: basis E11, E12, E21, E22
    mu_m2 = product(4, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 0): 1, (1, 3, 1): 1,
                        (2, 0, 2): 1, (2, 1, 3): 1, (3, 2, 2): 1, (3, 3, 3): 1})
    out["mat2"] = hs.HomAlgebra(mu_m2, hs.identity_map(F, 4), vec([1, 0, 0, 1]))
    conj = lmap([[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 2, 0],
                 [0, 0, 0, 1]])
    out["mat2_twist_conj"] = hs.yau_twist("algebra", out["mat2"], conj)

    # group algebra of the two-element group; sign twist
    mu_z2 = product(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    out["z2group"] = hs.HomAlgebra(mu_z2, hs.identity_map(F, 2), vec([1, 0]))
    sign = lmap([[1, 0], [0, -1]])
    out["z2group_twist_sign"] = hs.yau_twist("algebra", out["z2group"], sign)

    # zero multiplication
    out["trivial2dim"] = hs.HomAlgebra(product(2, {}), hs.identity_map(F, 2))

    # the ground field as a one-dimensional algebra
    out["dim1"] = hs.HomAlgebra(product(1, {(0, 0, 0): 1}),
                                hs.identity_map(F, 1), vec([1]))

    # the two classical unital products on one 2-dim space (shared unit e1):
    # an idempotent generator s^2 = s, and a square-zero generator t^2 = 0
    out["bool2dim"] = hs.HomAlgebra(mu2u, hs.identity_map(F, 2), vec([1, 0]))
    out["dual2dim"] = hs.HomAlgebra(mu2b, hs.identity_map(F, 2), vec([1, 0]))

    # smallest Leibniz bracket that is not skew-symmetric: [a, a] = b
    out["leibniz2dim"] = hs.HomLeibniz(product(2, {(0, 0, 1): 1}),
                                       hs.identity_map(F, 2))
    return out


METADATA = {
    "hom3dim_ab": "three-dimensional twisted-associative table, parameters 1 and 2",
    "unital2dim": "two-dimensional unital table whose twist collapses onto e2",
    "coalg2dim": "two-dimensional coalgebra, coproduct lands on e2 (x) e2",
    "counital2dim": "counital variant of coalg2dim",
    "ex1": "published bialgebra claim; direct evaluation refutes it",
    "twohom2dim": "published two-product claim; second product fails",
    "ex2": "published two-product bialgebra claim; constituent failures",
    "trivdialg3dim": "both bar products equal to the hom3dim_ab product",
    "ut2": "upper-triangular 2x2 matrices with the inner derivation by E12",
    "kx3": "truncated polynomial algebra, x^3 = 0",
    "kx3_twist2": "kx3 twisted by the algebra endomorphism x -> 2x",
    "mat2": "full 2x2 matrix algebra",
    "mat2_twist_conj": "mat2 twisted by conjugation with diag(1, 2)",
    "z2group": "group algebra of the order-2 group",
    "z2group_twist_sign": "z2group twisted by the sign automorphism",
    "trivial2dim": "zero multiplication",
    "dim1": "the ground field as a one-dimensional unital algebra",
    "bool2dim": "unital product with an idempotent generator",
    "dual2dim": "unital product with a square-zero generator",
    "leibniz2dim": "non-skew Leibniz bracket [a, a] = b",
}

DISCREPANCY = {
    "ex1": ("paper-discrepancy: published as a unital bialgebra and as "
            "infinitesimal; evaluation refutes both"),
    "twohom2dim": ("paper-discrepancy: published as a unital two-product "
                   "structure; the second product fails twisted "
                   "associativity and multiplicativity"),
    "ex2": ("paper-discrepancy: published as a two-product bialgebra; "
            "constituent checks fail"),
}


def main(out_dir=OUT):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "morphisms").mkdir(exist_ok=True)
    fx = fixtures()

    # ----- hard assertions against independently derived verdicts -----
    assert hs.run_check("hom-algebra", fx["hom3dim_ab"]).passed
    assert hs.run_check("hom-algebra", fx["unital2dim"]).passed
    assert hs.run_check("hom-coalgebra", fx["coalg2dim"]).passed
    assert hs.run_check("hom-coalgebra", fx["counital2dim"]).passed
    v = hs.run_check("hom-bialgebra", fx["ex1"])
    assert sorted(v.failing_axioms()) == [
        "comultiplicativity", "counit-twist-invariance", "hom-coassociativity"]
    vi = hs.run_check("infinitesimal", fx["ex1"])
    assert "infinitesimal" in vi.failing_axioms()
    w = [x for x in vi.witnesses if x.axiom == "infinitesimal"][0]
    assert w.at == (0, 0)
    vt = hs.run_check("2-hom-assoc-algebra", fx["twohom2dim"])
    assert {x.key for x in vt.witnesses} == {"mu2/multiplicativity",
                                             "mu2/hom-associativity"}
    assert hs.run_check("hom-dialgebra", fx["trivdialg3dim"]).passed
    assert hs.run_check("differential", fx["ut2"]).passed
    for name in ("kx3", "mat2", "z2group", "trivial2dim", "dim1",
                 "bool2dim", "dual2dim"):
        assert hs.run_check("hom-algebra", fx[name]).passed, name
    for name in ("kx3_twist2", "mat2_twist_conj", "z2group_twist_sign"):
        assert hs.run_check("hom-algebra", fx[name]).passed, name
    assert hs.run_check("hom-leibniz", fx["leibniz2dim"]).passed

    # ----- write fixtures -----
    for name, s in fx.items():
        meta = {"name": name, "provenance": METADATA[name]}
        if name in DISCREPANCY:
            meta["annotations"] = [DISCREPANCY[name]]
        documents.save_path(out_dir / f"{name}.json",
                            documents.structure_to_document(s, name, meta))

    # ----- derived rows -----
    entries = []

    def fixture_entry(name, checks, annotations=()):
        entries.append({"name": name, "fixture": f"{name}.json",
                        "checks": checks,
                        **({"annotations": list(annotations)}
                           if annotations else {})})

    def derived_entry(name, derive, checks, annotations=()):
        entries.append({"name": name, "derive": derive, "checks": checks,
                        **({"annotations": list(annotations)}
                           if annotations else {})})

    def expected_checks(structure, check_ids, **modes):
        rows = []
        for cid in check_ids:
            verdict = hs.run_check(cid, structure, **modes)
            row = {"check": cid, "status": verdict.status}
            if not verdict.passed:
                row["failing"] = verdict.failing_keys()
            oracle = oracle_crosscheck(structure, cid, samples=40, seed=0,
                                       verdict=verdict)
            assert oracle.agreed, (cid, oracle.mismatches)
            rows.append(row)
        return rows

    fixture_entry("hom3dim_ab",
                  expected_checks(fx["hom3dim_ab"], ["hom-algebra"]))
    fixture_entry("unital2dim",
                  expected_checks(fx["unital2dim"], ["hom-algebra"]))
    fixture_entry("coalg2dim",
                  expected_checks(fx["coalg2dim"], ["hom-coalgebra"]))
    fixture_entry("counital2dim",
                  expected_checks(fx["counital2dim"], ["hom-coalgebra"]))
    fixture_entry("ex1",
                  expected_checks(fx["ex1"], ["hom-bialgebra", "infinitesimal"]),
                  [DISCREPANCY["ex1"]])
    fixture_entry("twohom2dim",
                  expected_checks(fx["twohom2dim"], ["2-hom-assoc-algebra"]),
                  [DISCREPANCY["twohom2dim"]])
    fixture_entry("ex2",
                  expected_checks(fx["ex2"], ["2-hom-assoc-bialgebra"]),
                  [DISCREPANCY["ex2"]])
    derived_entry("ex2-as-2-hom-bialgebra",
                  {"op": "promote-two-hom", "input": "ex2",
                   "variant": "2-hom-bialgebra"},
                  expected_checks(_derive({"op": "promote-two-hom",
                                           "input": "ex2",
                                           "variant": "2-hom-bialgebra"},
                                          fx), ["2-hom-bialgebra"]),
                  [DISCREPANCY["ex2"]])
    fixture_entry("trivdialg3dim",
                  expected_checks(fx["trivdialg3dim"], ["hom-dialgebra"]))
    derived_entry("trivdialg3dim-as-hlsda",
                  {"op": "as-hlsda", "input": "trivdialg3dim"},
                  expected_checks(_derive({"op": "as-hlsda",
                                           "input": "trivdialg3dim"}, fx),
                                  ["hlsda"]))
    fixture_entry("ut2", expected_checks(fx["ut2"], ["differential"]))
    for name in ("kx3", "kx3_twist2", "mat2", "mat2_twist_conj", "z2group",
                 "z2group_twist_sign", "trivial2dim", "dim1", "bool2dim",
                 "dual2dim"):
        fixture_entry(name, expected_checks(fx[name], ["hom-algebra"]))
    fixture_entry("leibniz2dim",
                  expected_checks(fx["leibniz2dim"], ["hom-leibniz"]))

    # prelie views of associative corpus tables
    for name in ("hom3dim_ab", "kx3_twist2"):
        spec = {"op": "as-prelie", "input": name}
        derived_entry(f"{name}-as-prelie", spec,
                      expected_checks(_derive(spec, fx), ["hom-prelie"]))

    # derived dialgebra / bracket chain over ut2
    chain = {}
    for name, spec in (
            ("ut2-algebra", {"op": "algebra-of", "input": "ut2"}),
            ("ut2-dialg", {"op": "dialg-from-diff", "input": "ut2"}),
            ("ut2-leibniz", {"op": "leibniz-from-diff", "input": "ut2"})):
        chain[name] = _derive(spec, {**fx, **chain})
        check_ids = {"ut2-algebra": ["hom-algebra"],
                     "ut2-dialg": ["hom-dialgebra"],
                     "ut2-leibniz": ["hom-leibniz"]}[name]
        derived_entry(name, spec, expected_checks(chain[name], check_ids))
    spec = {"op": "as-hlsda", "input": "ut2-dialg"}
    chain["ut2-dialg-hlsda"] = _derive(spec, {**fx, **chain})
    derived_entry("ut2-dialg-hlsda", spec,
                  expected_checks(chain["ut2-dialg-hlsda"], ["hlsda"]))
    for variant in ("loday", "aligned"):
        spec = {"op": "bracket", "input": "ut2-dialg", "variant": variant}
        s = _derive(spec, {**fx, **chain})
        annotations = []
        if variant == "aligned":
            annotations = [
                "paper-discrepancy: the source states two different bracket "
                "formulas for the derived commutator; this row records the "
                "aligned variant's own verdict, the loday variant is the row "
                "above"]
        derived_entry(f"ut2-bracket-{variant}", spec,
                      expected_checks(s, ["hom-leibniz"]), annotations)

    # unit-adjoining extensions
    k_expect = {}
    for base in ("dim1", "kx3", "z2group", "bool2dim", "dual2dim",
                 "ut2-algebra", "mat2"):
        src = chain.get(base, fx.get(base))
        spec = {"op": "k1", "input": base}
        s = hs.kaplansky_k1(src)
        k_expect[f"k1-{base}"] = s
        derived_entry(f"k1-{base}", spec,
                      expected_checks(s, ["hom-bialgebra", "infinitesimal"]))
    assert all(
        e["status"] == "pass"
        for entry in entries if entry["name"].startswith("k1-")
        for e in entry["checks"])

    for base in ("dim1", "kx3", "z2group", "bool2dim", "dual2dim"):
        spec = {"op": "k2", "input": base}
        s = hs.kaplansky_k2(fx[base])
        rows = expected_checks(s, ["hom-bialgebra", "infinitesimal"])
        annotations = []
        if base == "dim1":
            # with nothing outside the unit line both coproduct extensions
            # coincide, so the infinitesimal relation holds as well
            assert rows[0]["status"] == "pass"
            assert rows[1]["status"] == "pass"
            annotations = ["degenerate case: with nothing outside the unit "
                           "line the two coproduct extensions coincide, so "
                           "the infinitesimal relation holds here"]
        elif base == "z2group":
            # g.g = 1 lands on the old unit, whose special-case coproduct
            # differs from the generic formula the published proof assumes
            assert rows[0]["status"] == "fail"
            assert rows[0]["failing"] == ["coproduct-multiplicativity"]
            assert rows[1]["status"] == "fail"
            annotations = [
                "paper-discrepancy: the second extension is published as a "
                "bialgebra for every unital input, but it fails coproduct "
                "multiplicativity whenever a product of non-unit basis "
                "vectors has a component along the unit (here g.g = 1)"]
        else:
            assert rows[0]["status"] == "pass"
            assert rows[1]["status"] == "fail", base
        derived_entry(f"k2-{base}", spec, rows, annotations)

    # forced extensions of the ineligible two-dimensional unital table
    for op in ("k1", "k2"):
        spec = {"op": op, "input": "unital2dim", "allow-ineligible": True}
        s = _derive(spec, fx)
        rows = expected_checks(s, ["hom-bialgebra", "infinitesimal"])
        assert rows[0]["status"] == "pass"
        assert rows[1]["status"] == ("pass" if op == "k1" else "fail")
        derived_entry(
            f"{op}-unital2dim-forced", spec, rows,
            ["built with allow-ineligible: the published extension rules "
             "conflict on inputs whose twist moves the unit; the case-split "
             "reading is used"])

    # assemblies over the shared-unit pair (bool2dim, dual2dim)
    for name, spec, checks in (
            ("b1-bool-dual",
             {"op": "assemble", "kind": "2-assoc-bialgebra-B1",
              "inputs": ["bool2dim", "dual2dim"]},
             ["2-hom-assoc-bialgebra"]),
            ("b1b2-bool-dual-first",
             {"op": "assemble", "kind": "2-bialgebras-B1B2",
              "inputs": ["bool2dim", "dual2dim"], "select": 0},
             ["2-hom-bialgebra"]),
            ("b1b2-bool-dual-second",
             {"op": "assemble", "kind": "2-bialgebras-B1B2",
              "inputs": ["bool2dim", "dual2dim"], "select": 1},
             ["2-hom-bialgebra"]),
            ("b22-bool-dual",
             {"op": "assemble", "kind": "2-2-bialgebra",
              "inputs": ["bool2dim", "dual2dim"]},
             ["2-2-hom-bialgebra"]),
            ("b1-bool-bool",
             {"op": "assemble", "kind": "2-assoc-bialgebra-B1",
              "inputs": ["bool2dim", "bool2dim"]},
             ["2-hom-assoc-bialgebra"])):
        s = _derive(spec, fx)
        rows = expected_checks(s, checks)
        assert all(r["status"] == "pass" for r in rows), name
        derived_entry(name, spec, rows)

    # opposite/co-opposite pair of a passing bialgebra
    spec = {"op": "op-cop-pair", "input": "k1-mat2"}
    s = _derive(spec, k_expect)
    rows = expected_checks(s, ["2-hom-bialgebra"])
    assert rows[0]["status"] == "pass"
    derived_entry("opcop-k1-mat2", spec, rows)

    # ----- morphism fixtures -----
    morphisms = []

    def morphism_fixture(name, matrix, source, target, twisted=None):
        fpath = f"morphisms/{name}.json"
        documents.save_path(out_dir / fpath,
                            documents.morphism_to_document(
                                lmap(matrix), source, target))
        f = lmap(matrix)
        assert hs.check_morphism(f, fx[source], fx[target]).passed, name
        row = {"name": name, "file": fpath, "source": source,
               "target": target, "status": "pass"}
        if twisted:
            tsrc, tdst = twisted
            assert hs.check_morphism(f, fx[tsrc], fx[tdst]).passed, name
            row["twisted-source"] = tsrc
            row["twisted-target"] = tdst
            row["twisted-status"] = "pass"
        morphisms.append(row)

    morphism_fixture("kx3_scale", [[1, 0, 0], [0, 2, 0], [0, 0, 4]],
                     "kx3", "kx3", ("kx3_twist2", "kx3_twist2"))
    morphism_fixture("mat2_conj",
                     [[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0],
                      [0, 0, 2, 0], [0, 0, 0, 1]],
                     "mat2", "mat2", ("mat2_twist_conj", "mat2_twist_conj"))
    morphism_fixture("z2_sign", [[1, 0], [0, -1]],
                     "z2group", "z2group",
                     ("z2group_twist_sign", "z2group_twist_sign"))
    morphism_fixture("kx3_to_dim1", [[1, 0, 0]], "kx3", "dim1",
                     ("kx3_twist2", "dim1"))

    table = {"format-version": 1, "entries": entries, "morphisms": morphisms}
    with open(out_dir / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(fx)} fixtures, {len(entries)} entries, "
          f"{len(morphisms)} morphisms to {out_dir}")


if __name__ == "__main__":
    main()
