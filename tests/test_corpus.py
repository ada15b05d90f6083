import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from homstruct.corpus import (DATA_DIR, CorpusOutcome, corpus_run,
                              load_expected, load_fixture, render_summary)
from homstruct.errors import DocumentError


@pytest.fixture(scope="module")
def outcome():
    return corpus_run(samples=10, seed=0)


def test_every_fixture_validates_and_matches(outcome):
    assert outcome.ok, outcome.messages
    assert not outcome.messages


def test_worked_example_coverage():
    """The corpus covers every worked example plus the named extras."""
    table = load_expected()
    names = {e["name"] for e in table["entries"]}
    required = {"hom3dim_ab", "unital2dim", "coalg2dim", "counital2dim",
                "ex1", "twohom2dim", "ex2", "trivdialg3dim", "ut2", "kx3",
                "kx3_twist2", "mat2", "mat2_twist_conj", "z2group",
                "z2group_twist_sign", "trivial2dim", "dim1", "bool2dim",
                "dual2dim", "leibniz2dim"}
    assert required <= names


def test_discrepancy_rows_annotated():
    table = load_expected()
    flagged = {e["name"] for e in table["entries"]
               if any(a.startswith("paper-discrepancy")
                      for a in e.get("annotations", []))}
    assert {"ex1", "ex2", "twohom2dim", "k2-z2group",
            "ut2-bracket-aligned"} <= flagged


def test_summary_mentions_expected_fail_rows(outcome):
    text = render_summary(outcome)
    assert "expected-fail, paper-claims-pass" in text
    assert "all fixtures match committed verdicts" in text


def test_drift_detected_on_perturbed_scalar(tmp_path):
    work = tmp_path / "corpus"
    shutil.copytree(DATA_DIR, work)
    target = work / "hom3dim_ab.json"
    doc = json.loads(target.read_text())
    doc["maps"]["mu"][0][0][0] = "3"
    target.write_text(json.dumps(doc))
    out = corpus_run(samples=5, seed=0, data_dir=work)
    assert not out.ok
    assert any("hom3dim_ab" in m for m in out.messages)


def test_drift_detected_on_edited_expectation(tmp_path):
    work = tmp_path / "corpus"
    shutil.copytree(DATA_DIR, work)
    expected = json.loads((work / "expected.json").read_text())
    row = next(e for e in expected["entries"] if e["name"] == "ex1")
    row["checks"][0]["status"] = "pass"
    (work / "expected.json").write_text(json.dumps(expected))
    out = corpus_run(samples=5, seed=0, data_dir=work)
    assert not out.ok


def test_missing_corpus_rejected(tmp_path):
    with pytest.raises(DocumentError):
        corpus_run(data_dir=tmp_path / "nowhere")


def test_load_fixture_returns_structures():
    s = load_fixture("ut2.json")
    assert s.kind == "differential-hom-algebra"
    assert s.dim == 3


def test_outcome_is_a_plain_record(outcome):
    assert isinstance(outcome, CorpusOutcome)
    assert all("checks" in row or "error" in row for row in outcome.rows)


def test_generator_reproduces_the_bundled_corpus(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(tmp_path)
    bundled = sorted(p.relative_to(DATA_DIR) for p in DATA_DIR.rglob("*.json"))
    assert sorted(p.relative_to(tmp_path)
                  for p in tmp_path.rglob("*.json")) == bundled
    for rel in bundled:
        assert (tmp_path / rel).read_bytes() == (DATA_DIR / rel).read_bytes()
