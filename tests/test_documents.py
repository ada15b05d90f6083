import json

import pytest

import homstruct as hs
from homstruct.corpus import DATA_DIR
from homstruct.documents import (document_to_morphism, document_to_structure,
                                 dumps, loads, morphism_to_document,
                                 structure_to_document)
from homstruct.errors import DocumentError
from homstruct.linalg import tensors_equal
from homstruct.structures import KINDS

from conftest import F

FIXTURE_FILES = sorted(DATA_DIR.glob("*.json"))


def test_corpus_is_bundled():
    assert any(p.name == "hom3dim_ab.json" for p in FIXTURE_FILES)
    assert (DATA_DIR / "expected.json").exists()


@pytest.mark.parametrize("path", [p for p in FIXTURE_FILES
                                  if p.name != "expected.json"],
                         ids=lambda p: p.stem)
def test_round_trip_bit_exact(path):
    text = path.read_text(encoding="utf-8")
    doc = loads(text)
    s = document_to_structure(doc)
    out = structure_to_document(s, metadata=doc.get("metadata"))
    assert out == doc
    assert dumps(out) == text


def test_serialize_then_parse_identity(hom3dim, ut2, leibniz2dim, bool2dim,
                                       dual2dim, ex2):
    from homstruct.constructions import (affine_from_hlsda, assemble_two,
                                         dialgebra_from_differential)
    dialg = dialgebra_from_differential(ut2)
    hlsda = hs.HLSDA(dialg.left, dialg.right, dialg.alpha)
    cases = (hom3dim, ut2, leibniz2dim, ex2, dialg, hlsda,
             hs.HomPreLie(hom3dim.mu, hom3dim.alpha),
             affine_from_hlsda(hlsda),
             assemble_two("2-bialgebras-B1B2", bool2dim, dual2dim)[0],
             assemble_two("2-2-bialgebra", bool2dim, dual2dim),
             assemble_two("2-assoc-bialgebra-B1", bool2dim, dual2dim))
    fixture_kinds = {json.loads(p.read_text(encoding="utf-8")).get("kind")
                     for p in FIXTURE_FILES}
    assert fixture_kinds | {s.kind for s in cases} >= set(KINDS)
    for s in cases:
        doc = structure_to_document(s)
        back = document_to_structure(json.loads(json.dumps(doc)))
        assert back.kind == s.kind
        for name, p in s.products().items():
            assert tensors_equal(back.products()[name], p)
        assert tensors_equal(back.alpha, s.alpha)
        assert structure_to_document(back) == doc


def test_scalar_literals_canonicalized_on_parse():
    doc = structure_to_document(
        hs.HomAlgebra(hs.ProductTensor(F, (((F.coerce("1/2"),),),)),
                      hs.identity_map(F, 1)))
    raw = json.loads(json.dumps(doc))
    raw["maps"]["mu"][0][0][0] = "2/4"
    parsed = document_to_structure(raw)
    assert parsed.mu.c[0][0][0] == F.coerce("1/2")


def test_floats_rejected():
    doc = structure_to_document(hs.HomAlgebra(
        hs.ProductTensor(F, (((F.one,),),)), hs.identity_map(F, 1)))
    raw = json.loads(json.dumps(doc))
    raw["maps"]["mu"][0][0][0] = 0.5
    with pytest.raises(DocumentError):
        document_to_structure(raw)


def test_truncated_document_rejected():
    with pytest.raises(DocumentError):
        loads('{"format-version": 1, "kind": "hom-alg')


def test_format_version_enforced():
    doc = structure_to_document(hs.HomAlgebra(
        hs.ProductTensor(F, (((F.one,),),)), hs.identity_map(F, 1)))
    doc["format-version"] = 99
    with pytest.raises(DocumentError):
        document_to_structure(doc)


def test_unknown_kind_and_sections_rejected():
    base = structure_to_document(hs.HomAlgebra(
        hs.ProductTensor(F, (((F.one,),),)), hs.identity_map(F, 1)))
    bad = dict(base, kind="hopf-algebra")
    with pytest.raises(DocumentError):
        document_to_structure(bad)
    extra = json.loads(json.dumps(base))
    extra["maps"]["delta"] = [[["1"]]]
    with pytest.raises(DocumentError):
        document_to_structure(extra)


def test_missing_required_section_rejected():
    base = structure_to_document(hs.HomAlgebra(
        hs.ProductTensor(F, (((F.one,),),)), hs.identity_map(F, 1)))
    broken = json.loads(json.dumps(base))
    del broken["maps"]["alpha"]
    with pytest.raises(DocumentError):
        document_to_structure(broken)


def _replaced(nested, path, value):
    """A copy of the nested list ``nested`` with the item at ``path`` (a
    list of indices) replaced by ``value``."""
    if not path:
        return value
    copy = list(nested)
    copy[path[0]] = _replaced(nested[path[0]], path[1:], value)
    return copy


def _misshapen(good):
    """Each way to break the nesting of the nested list ``good``: at each
    level, one item too many, one too few, and an entry where a list
    belongs; and a list where an entry belongs."""
    path, node = [], good
    while isinstance(node, list):
        # "10" is as long as a row at dimension 2, but a string, not a list
        for value in (node + node[:1], node[1:], 1, "1", "10"):
            yield _replaced(good, path, value)
        path.append(0)
        node = node[0]
    yield _replaced(good, path, [node])


def test_wrong_shape_rejected(ex1):
    # every section type, on a dim-2 hom-bialgebra document
    base = json.loads(json.dumps(structure_to_document(ex1)))
    assert base["kind"] == "hom-bialgebra" and base["dimension"] == 2
    for section in ("mu", "delta", "counit", "alpha", "unit"):
        for arr in _misshapen(base["maps"][section]):
            broken = json.loads(json.dumps(base))
            broken["maps"][section] = arr
            with pytest.raises(DocumentError,
                               match=f"^section '{section}' must be a "):
                document_to_structure(broken)


@pytest.mark.parametrize("key, value", [
    ("format-version", True), ("format-version", 1.0),
    ("kind", ["hom-algebra"]), ("kind", {"hom-algebra": 1}), ("kind", 7),
    ("dimension", True),
    ("dimension", "1"), ("field", ["rational"]), ("basis", [2]),
    ("basis", "e"), ("metadata", ["name"]), ("maps", [])],
    ids=["bool-version", "float-version", "list-kind", "dict-kind",
         "int-kind", "bool-dimension", "string-dimension", "list-field",
         "int-label", "string-basis", "list-metadata", "list-maps"])
def test_top_level_fields_type_checked(key, value):
    doc = structure_to_document(hs.HomAlgebra(
        hs.ProductTensor(F, (((F.one,),),)), hs.identity_map(F, 1)))
    doc[key] = value
    with pytest.raises(DocumentError):
        document_to_structure(doc)


@pytest.mark.parametrize("text", ["[" * 100000, '{"a": ' * 100000],
                         ids=["lists", "objects"])
def test_deep_nesting_rejected(text):
    with pytest.raises(DocumentError, match="nested too deeply"):
        loads(text)


@pytest.mark.parametrize("change", [
    {"field": ["rational"]}, {"format-version": True}, {"matrix": [1, 0]},
    {"matrix": [["1", "0"], "01"]}, {"matrix": [["1", "0"], ["1"]]},
    {"matrix": [[]]}], ids=["field", "version", "flat-matrix", "string-row",
                            "ragged", "empty-row"])
def test_malformed_morphism_documents_rejected(change):
    doc = morphism_to_document(hs.identity_map(F, 2), "a", "b")
    with pytest.raises(DocumentError):
        document_to_morphism(dict(doc, **change))


def test_gf_documents(tmp_path):
    gf = hs.PrimeField(3)
    s = hs.HomAlgebra(hs.ProductTensor(gf, (((2,),),)),
                      hs.identity_map(gf, 1))
    doc = structure_to_document(s, name="tiny")
    assert doc["field"] == "gf:3"
    back = document_to_structure(json.loads(json.dumps(doc)))
    assert back.field == gf
    assert back.mu.c[0][0][0] == 2


def test_morphism_documents_round_trip():
    f = hs.LinearMap(F, ((F.one, F.zero), (F.zero, F.coerce(-1))))
    doc = morphism_to_document(f, "a", "b", {"note": "sign"})
    back, src, dst = document_to_morphism(json.loads(json.dumps(doc)))
    assert tensors_equal(back, f)
    assert (src, dst) == ("a", "b")
    with pytest.raises(DocumentError):
        document_to_morphism({"format-version": 1, "type": "structure"})


def test_every_corpus_kind_parses_to_the_declared_kind():
    for path in FIXTURE_FILES:
        if path.name == "expected.json":
            continue
        doc = loads(path.read_text(encoding="utf-8"))
        s = document_to_structure(doc)
        assert s.kind == doc["kind"], path.name
