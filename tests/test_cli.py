import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homstruct import cli, documents, fields
from homstruct.cli import main
from homstruct.constructions import CONSTRUCT_VERBS
from homstruct.corpus import DATA_DIR
from homstruct.search import SEARCH_KINDS

HOM3 = str(DATA_DIR / "hom3dim_ab.json")
EX1 = str(DATA_DIR / "ex1.json")
KX3 = str(DATA_DIR / "kx3.json")
UT2 = str(DATA_DIR / "ut2.json")
UNITAL2 = str(DATA_DIR / "unital2dim.json")
Z2GROUP = str(DATA_DIR / "z2group.json")
Z2_SIGN = str(DATA_DIR / "morphisms" / "z2_sign.json")


class TestCheck:
    def test_passing_document_exits_zero(self, capsys):
        assert main(["check", HOM3]) == 0
        out = capsys.readouterr().out
        assert "hom-algebra: PASS" in out
        assert "oracle agree" in out

    def test_failing_document_exits_one_and_lists_witnesses(self, capsys):
        assert main(["check", EX1]) == 1
        out = capsys.readouterr().out
        assert "comultiplicativity" in out
        assert "counit-twist-invariance" in out

    def test_truncated_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"format-version": 1, "kind": ')
        assert main(["check", str(bad)]) == 2

    def test_missing_file_exits_two(self):
        assert main(["check", "/nonexistent/x.json"]) == 2

    def test_kind_override_runs_requested_check(self, capsys):
        assert main(["check", EX1, "--kind", "infinitesimal",
                     "--no-oracle"]) == 1
        out = capsys.readouterr().out
        assert "infinitesimal" in out

    def test_incompatible_kind_exits_two(self, capsys):
        assert main(["check", HOM3, "--kind", "hom-bialgebra"]) == 2
        assert ("invalid input: check 'hom-bialgebra' cannot run on a "
                "hom-algebra structure") in capsys.readouterr().err

    def test_machine_format_is_json(self, capsys):
        assert main(["check", HOM3, "--format", "machine",
                     "--no-oracle"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["checks"][0]["status"] == "pass"

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["check", HOM3, "--format", "machine", "--no-oracle",
                     "--out", str(target)]) == 0
        assert json.loads(target.read_text())["structure"] == "hom3dim_ab"

    def test_counit_mode_flag_accepted(self, capsys):
        counital = str(DATA_DIR / "counital2dim.json")
        assert main(["check", counital, "--counit-mode", "eq8",
                     "--no-oracle"]) == 0

    def test_strict_assoc_flag(self, capsys):
        trivd = str(DATA_DIR / "trivdialg3dim.json")
        assert main(["check", trivd, "--no-oracle"]) == 0
        assert main(["check", trivd, "--strict-assoc", "--no-oracle"]) == 1

    def test_dialgebra_document_checked_as_left_disymmetric(self, capsys):
        trivd = str(DATA_DIR / "trivdialg3dim.json")
        assert main(["check", trivd, "--kind", "hlsda", "--no-oracle"]) == 0
        assert "hlsda: PASS" in capsys.readouterr().out

    def test_algebra_document_checked_as_prelie(self, capsys):
        assert main(["check", HOM3, "--kind", "hom-prelie",
                     "--no-oracle"]) == 0

    def test_witness_cap_respected(self, capsys):
        assert main(["check", EX1, "--witness-cap", "1", "--no-oracle"]) == 1
        out = capsys.readouterr().out
        assert out.count("    witness ") == 1
        assert "truncated" in out


class TestConstruct:
    def test_k1_writes_document_and_reports_suites(self, tmp_path, capsys):
        target = tmp_path / "k1.json"
        assert main(["construct", "k1", KX3, "--out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "hom-bialgebra: pass" in out
        assert "infinitesimal: pass" in out
        doc = json.loads(target.read_text())
        assert doc["dimension"] == 4

    def test_k2_reports_expected_failure_with_witness(self, tmp_path,
                                                      capsys):
        target = tmp_path / "k2.json"
        assert main(["construct", "k2", UNITAL2, "--allow-ineligible",
                     "--out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "hom-bialgebra: pass" in out
        assert "infinitesimal: fail (witness infinitesimal @ (e3, e3))" in out

    def test_k2_without_override_exits_one(self, tmp_path, capsys):
        assert main(["construct", "k2", UNITAL2,
                     "--out", str(tmp_path / "x.json")]) == 1
        assert "not eligible" in capsys.readouterr().err

    def test_twist_identity_returns_input_table(self, tmp_path, capsys):
        alpha_doc = tmp_path / "alpha.json"
        alpha_doc.write_text(json.dumps({
            "format-version": 1, "type": "morphism", "field": "rational",
            "source": "kx3", "target": "kx3",
            "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
        target = tmp_path / "twisted.json"
        assert main(["construct", "twist", KX3, "--alpha", str(alpha_doc),
                     "--kind", "algebra", "--out", str(target)]) == 0
        out_doc = json.loads(target.read_text())
        in_doc = json.loads(Path(KX3).read_text())
        assert out_doc["maps"]["mu"] == in_doc["maps"]["mu"]
        assert out_doc["maps"]["alpha"] == in_doc["maps"]["alpha"]

    def test_twist_by_scaling(self, tmp_path, capsys):
        alpha_doc = tmp_path / "alpha.json"
        alpha_doc.write_text(json.dumps({
            "format-version": 1, "type": "morphism", "field": "rational",
            "source": "kx3", "target": "kx3",
            "matrix": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]]}))
        assert main(["construct", "twist", KX3, "--alpha", str(alpha_doc),
                     "--kind", "algebra",
                     "--out", str(tmp_path / "t.json")]) == 0
        assert "hom-algebra: pass" in capsys.readouterr().out

    def test_derived_chain_verbs(self, tmp_path, capsys):
        dialg = tmp_path / "dialg.json"
        assert main(["construct", "dialg-from-diff", UT2,
                     "--out", str(dialg)]) == 0
        assert "hom-dialgebra: pass" in capsys.readouterr().out
        bracket = tmp_path / "bracket.json"
        assert main(["construct", "bracket", str(dialg), "--variant",
                     "loday", "--out", str(bracket)]) == 0
        assert "hom-leibniz: pass" in capsys.readouterr().out
        assert main(["construct", "leibniz-from-diff", UT2,
                     "--out", str(tmp_path / "lb.json")]) == 0
        assert main(["construct", "trivial-dialg", HOM3,
                     "--out", str(tmp_path / "td.json")]) == 0

    def test_assemble_pair_writes_two_documents(self, tmp_path, capsys):
        bool2 = str(DATA_DIR / "bool2dim.json")
        dual2 = str(DATA_DIR / "dual2dim.json")
        first = tmp_path / "b1.json"
        second = tmp_path / "b2.json"
        assert main(["construct", "assemble", bool2, dual2,
                     "--kind", "2-bialgebras-B1B2", "--out", str(first),
                     "--out2", str(second)]) == 0
        out = capsys.readouterr().out
        assert out.count("2-hom-bialgebra: pass") == 2
        assert json.loads(first.read_text())["kind"] == "2-hom-bialgebra"
        assert json.loads(second.read_text())["kind"] == "2-hom-bialgebra"

    def test_tensor_and_opposites(self, tmp_path, capsys):
        assert main(["construct", "tensor", UNITAL2, UNITAL2,
                     "--out", str(tmp_path / "sq.json")]) == 0
        assert "hom-algebra: pass" in capsys.readouterr().out
        assert main(["construct", "op", HOM3,
                     "--out", str(tmp_path / "op.json")]) == 0
        doc = json.loads((tmp_path / "op.json").read_text())
        # the one-sided (e2, e3) entry lands at (e3, e2) after flipping
        assert doc["maps"]["mu"][1][2][2] == "0"
        assert doc["maps"]["mu"][2][1][2] == "2"

    def test_construct_bad_input_exits_two(self, tmp_path):
        assert main(["construct", "k1", "/nonexistent.json",
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("argv", [
        *(["twist", Z2GROUP, "--kind", kind, "--alpha", Z2_SIGN]
          for kind in ("leibniz", "dialgebra", "hlsda", "2-assoc-algebra")),
        ["tensor", Z2GROUP, str(DATA_DIR / "leibniz2dim.json")],
        ["assemble", Z2GROUP],
        ["k1", str(DATA_DIR / "ex2.json"), "--allow-ineligible"],
        ["twist", Z2GROUP, "--kind", "nope", "--alpha", Z2_SIGN],
        ["assemble", UNITAL2, UNITAL2, "--kind", "nope"],
        ["op", str(DATA_DIR / "coalg2dim.json")],
    ], ids=["twist-leibniz", "twist-dialgebra", "twist-hlsda",
            "twist-2-assoc-algebra", "tensor-leibniz", "assemble-one-input",
            "k1-two-hom", "twist-unknown-kind", "assemble-unknown-kind",
            "op-coalgebra"])
    def test_mismatched_construct_input_exits_two(self, argv, capsys):
        assert main(["construct", *argv]) == 2
        err = capsys.readouterr().err
        assert err and "Traceback" not in err


# Paths that exist but cannot be read as a document, and output paths
# whose directory is missing: each must exit 2 with one line on stderr.
DUAL2 = str(DATA_DIR / "dual2dim.json")
BOOL2 = str(DATA_DIR / "bool2dim.json")


@pytest.fixture
def bad_paths(tmp_path):
    (tmp_path / "adir").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "caf\xe9"}')
    return {"DIR": str(tmp_path / "adir"),
            "LATIN1": str(tmp_path / "latin1.json"),
            "OUT": str(tmp_path / "written.json"),
            "MISSING": str(tmp_path / "missing" / "x.json")}


def _exits_two_with_one_line(argv, bad_paths, capsys):
    argv = [bad_paths.get(a, a) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("argv", [
    ["check", "DIR"],
    ["check", "LATIN1"],
    ["construct", "tensor", Z2GROUP, "DIR"],
    ["construct", "twist", Z2GROUP, "--alpha", "DIR"],
    ["construct", "twist", Z2GROUP, "--alpha", "LATIN1"],
], ids=["check-directory", "check-not-utf8", "tensor-directory",
        "twist-alpha-directory", "twist-alpha-not-utf8"])
def test_unreadable_input_exits_two(argv, bad_paths, capsys):
    err = _exits_two_with_one_line(argv, bad_paths, capsys)
    assert err.startswith("invalid input: cannot read ")


@pytest.mark.parametrize("argv", [
    ["check", HOM3, "--no-oracle", "--out", "MISSING"],
    ["construct", "k1", KX3, "--out", "MISSING"],
    ["construct", "assemble", BOOL2, DUAL2, "--kind", "2-bialgebras-B1B2",
     "--out", "OUT", "--out2", "MISSING"],
    ["search", "--kind", "hom-algebra", "--dim", "1", "--prime", "2",
     "--out", "MISSING"],
], ids=["check-out", "construct-out", "construct-out2", "search-out"])
def test_unwritable_output_exits_two(argv, bad_paths, capsys):
    err = _exits_two_with_one_line(argv, bad_paths, capsys)
    assert f"cannot write {bad_paths['MISSING']}" in err


def test_out2_without_out_exits_two_and_writes_nothing(bad_paths, capsys):
    argv = ["construct", "k1", KX3, "--out2", "OUT"]
    err = _exits_two_with_one_line(argv, bad_paths, capsys)
    assert err == "invalid input: --out2 needs --out\n"
    assert not Path(bad_paths["OUT"]).exists()


@pytest.mark.parametrize("argv", [
    ["construct", "k1", KX3, "--out", "OUT", "--out2", "SECOND"],
    ["construct", "assemble", BOOL2, DUAL2, "--kind", "2-2-bialgebra",
     "--out", "OUT", "--out2", "SECOND"],
], ids=["k1", "single-assembly"])
def test_out2_on_a_one_output_construction_exits_two(argv, bad_paths,
                                                     capsys):
    bad_paths = dict(bad_paths, SECOND=str(Path(bad_paths["OUT"])
                                           .with_name("second.json")))
    err = _exits_two_with_one_line(argv, bad_paths, capsys)
    assert err == ("invalid input: --out2 needs a construction that produces "
                   "a pair (assemble --kind 2-bialgebras-B1B2)\n")
    assert not Path(bad_paths["OUT"]).exists()
    assert not Path(bad_paths["SECOND"]).exists()


@pytest.mark.parametrize("flag", [["--format", "machine"], ["--seed", "7"],
                                  ["--witness-cap", "0"]],
                         ids=["format", "seed", "witness-cap"])
def test_construct_refuses_check_only_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "k1", KX3] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_witness_cap_below_one_exits_two(cap, capsys):
    assert main(["check", EX1, "--witness-cap", cap, "--no-oracle"]) == 2
    assert capsys.readouterr() == (
        "", f"invalid input: --witness-cap must be at least 1, got {cap}\n")


@pytest.mark.parametrize("argv", [
    ["check", HOM3, "--oracle-samples=-3"],
    ["check", HOM3, "--no-oracle", "--oracle-samples=-3"],
    ["corpus", "--oracle-samples=-3"],
], ids=["check", "check-no-oracle", "corpus"])
def test_negative_oracle_samples_exit_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "invalid input: --oracle-samples must be non-negative, got -3\n")


ABOVE_BOUND = str(cli.MAX_ORACLE_SAMPLES + 1)


@pytest.mark.parametrize("argv", [
    ["check", HOM3, "--oracle-samples", ABOVE_BOUND],
    ["check", HOM3, "--no-oracle", "--oracle-samples", ABOVE_BOUND],
    ["corpus", "--oracle-samples", ABOVE_BOUND],
    ["check", HOM3, "--oracle-samples", str(10 ** 22)],
], ids=["check", "check-no-oracle", "corpus", "check-huge"])
def test_oracle_samples_above_the_bound_exit_two(argv, capsys):
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 5
    assert capsys.readouterr() == (
        "", f"invalid input: --oracle-samples must be at most "
            f"{cli.MAX_ORACLE_SAMPLES}, got {argv[-1]}\n")


@pytest.mark.parametrize("verb", ["check", "corpus"])
def test_oracle_samples_bound_is_in_the_help(verb, capsys):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"0 to {cli.MAX_ORACLE_SAMPLES}" in help_text


@pytest.mark.parametrize("key, value", [
    ("kind", ["hom-bialgebra"]), ("kind", {"hom-bialgebra": 1}),
    ("dimension", True), ("basis", [1, 2]), ("metadata", ["ex1"]),
], ids=["list-kind", "dict-kind", "bool-dimension", "int-labels",
        "list-metadata"])
def test_mistyped_document_fields_exit_two(key, value, bad_paths, tmp_path,
                                           capsys):
    doc = json.loads(Path(EX1).read_text())
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    _exits_two_with_one_line(["check", str(path)], bad_paths, capsys)


def test_bad_scalar_names_its_section(bad_paths, tmp_path, capsys):
    doc = json.loads(Path(BOOL2).read_text())
    doc["maps"]["alpha"][1][0] = "x"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    err = _exits_two_with_one_line(["check", str(path)], bad_paths, capsys)
    assert err.startswith("invalid input: section 'alpha': bad rational "
                          "literal 'x'")


def test_deeply_nested_document_exits_two(bad_paths, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    err = _exits_two_with_one_line(["check", str(path)], bad_paths, capsys)
    assert err == "invalid input: not valid JSON: nested too deeply\n"


def test_deeply_nested_corpus_table_exits_two(tmp_path, bad_paths, capsys):
    (tmp_path / "ex1.json").write_text(Path(EX1).read_text())
    (tmp_path / "expected.json").write_text("[" * 100000)
    err = _exits_two_with_one_line(["corpus", "--data", str(tmp_path)],
                                   bad_paths, capsys)
    assert "nested too deeply" in err


# Generated documents: a corpus fixture with the value at one JSON path
# replaced by a value of another JSON type, run through `check` and every
# one-input construct verb (twist with a fixed morphism). Each run must
# keep the exit-code contract: 0, 1 or 2, no traceback, and one line on
# stderr for an exit 2.
FIXTURES = sorted(str(p) for p in DATA_DIR.glob("*.json")
                  if p.name != "expected.json")
ONE_INPUT_VERBS = sorted(verb for verb, inputs in CONSTRUCT_VERBS.items()
                         if inputs == 1)
_JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 10 ** 40, 1.5, "", "x",
                     "1/0", [], {}]),
    st.text(max_size=4),
    st.recursive(st.sampled_from([None, 0, "1", []]),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6))


def _replaced(data, node, value):
    """``node`` with ``value`` at one drawn path below it: each level
    stops one time in four, and where nothing is below."""
    if isinstance(node, dict):
        keys = sorted(node)
    else:
        keys = list(range(len(node))) if isinstance(node, list) else []
    if not keys or data.draw(st.integers(0, 3)) == 0:
        return value
    key = data.draw(st.sampled_from(keys))
    out = dict(node) if isinstance(node, dict) else list(node)
    out[key] = _replaced(data, node[key], value)
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(fixture=st.sampled_from(FIXTURES), value=_JSON_VALUES,
       data=st.data())
def test_mutated_fixture_keeps_the_exit_contract(fixture, value, data):
    doc = json.loads(Path(fixture).read_text())
    key = data.draw(st.sampled_from(sorted(doc)))
    doc[key] = _replaced(data, doc[key], value)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "doc.json")
        Path(path).write_text(json.dumps(doc))
        runs = [["check", path, "--oracle-samples", "3"]] + [
            ["construct", verb, path]
            + (["--alpha", Z2_SIGN] if verb == "twist" else [])
            for verb in ONE_INPUT_VERBS]
        for argv in runs:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue(), argv
            if code == 2:
                assert len(err.getvalue().splitlines()) == 1, argv


_EX1_ENTRY ={"name": "ex1", "fixture": "ex1.json",
              "checks": [{"check": "hom-bialgebra", "status": "fail"}]}
_MORPHISM = {"name": "m", "file": "m.json", "source": "ex1",
             "target": "ex1", "status": "pass"}


def _with(base, **changes):
    return {**base, **{key.replace("_", "-"): value
                       for key, value in changes.items()}}


@pytest.mark.parametrize("table, where", [
    ({"entries": 5}, "entries must be a list"),
    ({"entries": [5]}, "entries[0] must be an object"),
    ({}, "entries must be a list"),
    ({"entries": [_with(_EX1_ENTRY, name=5)]}, "entries[0].name must be"),
    ({"entries": [{"fixture": "ex1.json"}]}, "entries[0].name must be"),
    ({"entries": [_with(_EX1_ENTRY, fixture=["ex1.json"])]},
     "entries[0].fixture must be"),
    ({"entries": [{"name": "d", "derive": "k1"}]},
     "entries[0].derive must be an object"),
    ({"entries": [{"name": "d"}]}, "entries[0].derive must be an object"),
    ({"entries": [_with(_EX1_ENTRY, checks=5)]}, "entries[0].checks must be"),
    ({"entries": [_with(_EX1_ENTRY, checks=[5])]},
     "entries[0].checks[0] must be an object"),
    ({"entries": [_with(_EX1_ENTRY, checks=[{"status": "pass"}])]},
     "entries[0].checks[0].check must be"),
    ({"entries": [_with(_EX1_ENTRY, checks=[{"check": "hom-bialgebra",
                                             "status": 1}])]},
     "entries[0].checks[0].status must be"),
    ({"entries": [_with(_EX1_ENTRY, checks=[{
        "check": "hom-bialgebra", "status": "fail", "failing": "x"}])]},
     "entries[0].checks[0].failing must be a list"),
    ({"entries": [_with(_EX1_ENTRY, checks=[{
        "check": "hom-bialgebra", "status": "fail", "counit-mode": 7}])]},
     "entries[0].checks[0].counit-mode must be"),
    ({"entries": [_with(_EX1_ENTRY, checks=[{"check": "nope",
                                             "status": "fail"}])]},
     "entries[0].checks[0].check must be one of"),
    ({"entries": [_with(_EX1_ENTRY, checks=[{
        "check": "hom-bialgebra", "status": "fail", "counit-mode": "eq9"}])]},
     "entries[0].checks[0].counit-mode must be one of"),
    ({"entries": [_with(_EX1_ENTRY, annotations=5)]},
     "entries[0].annotations must be a list"),
    ({"entries": [_EX1_ENTRY], "morphisms": 5}, "morphisms must be a list"),
    ({"entries": [_EX1_ENTRY], "morphisms": [5]},
     "morphisms[0] must be an object"),
    ({"entries": [_EX1_ENTRY], "morphisms": [_with(_MORPHISM, name=5)]},
     "morphisms[0].name must be"),
    ({"entries": [_EX1_ENTRY], "morphisms": [_with(_MORPHISM,
                                                   twisted_source=[])]},
     "morphisms[0].twisted-source must be"),
], ids=["entries-int", "entry-int", "no-entries", "name-int", "no-name",
        "fixture-list", "derive-string", "no-fixture-or-derive",
        "checks-int", "check-spec-int", "no-check-id", "status-int",
        "failing-string", "counit-mode-int", "unknown-check",
        "unknown-counit-mode", "annotations-int",
        "morphisms-int", "morphism-int", "morphism-name-int",
        "twisted-source-list"])
def test_mistyped_corpus_table_exits_two(tmp_path, bad_paths, capsys, table,
                                         where):
    (tmp_path / "ex1.json").write_text(Path(EX1).read_text())
    (tmp_path / "expected.json").write_text(
        json.dumps({"format-version": 1, **table}))
    err = _exits_two_with_one_line(["corpus", "--data", str(tmp_path)],
                                   bad_paths, capsys)
    assert err.startswith("corpus unavailable: expected-verdict table: ")
    assert where in err


# Generated corpus tables: a slice of the bundled expected.json (a fixture
# entry, a derived one, an annotated failing one, a two-input assembly
# and a morphism row with its twisted pair) with the value at one JSON
# path replaced by a value of another JSON type, run by `corpus --data`.
_TABLE_ENTRIES = ("dim1", "k1-dim1", "ex1", "z2group", "z2group_twist_sign",
                  "bool2dim", "dual2dim", "b1-bool-dual")
_TABLE_MORPHISMS = ("z2_sign",)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A corpus directory holding the files ``_TABLE_ENTRIES`` and
    ``_TABLE_MORPHISMS`` read, and their rows of the bundled table."""
    table = json.loads((DATA_DIR / "expected.json").read_text())
    entries = [e for e in table["entries"] if e["name"] in _TABLE_ENTRIES]
    morphisms = [m for m in table["morphisms"]
                 if m["name"] in _TABLE_MORPHISMS]
    data = tmp_path_factory.mktemp("corpus")
    (data / "morphisms").mkdir()
    for name in [e["fixture"] for e in entries if "fixture" in e] + [
            m["file"] for m in morphisms]:
        (data / name).write_text((DATA_DIR / name).read_text())
    return data, {"format-version": table["format-version"],
                  "entries": entries, "morphisms": morphisms}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(value=_JSON_VALUES, data=st.data())
def test_mutated_corpus_table_keeps_the_exit_contract(small_corpus, value,
                                                      data):
    directory, table = small_corpus
    key = data.draw(st.sampled_from(sorted(table)))
    mutated = {**table, key: _replaced(data, table[key], value)}
    (directory / "expected.json").write_text(json.dumps(mutated))
    argv = ["corpus", "--data", str(directory), "--oracle-samples", "3"]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), mutated
    assert "Traceback" not in err.getvalue(), mutated
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, mutated


def test_unmutated_corpus_table_passes(small_corpus, capsys):
    directory, table = small_corpus
    (directory / "expected.json").write_text(json.dumps(table))
    assert main(["corpus", "--data", str(directory)]) == 0
    assert "all fixtures match" in capsys.readouterr().out


@pytest.mark.parametrize("existing", [None, "old contents\n"],
                         ids=["new-out", "existing-out"])
def test_unwritable_out2_leaves_out_untouched(existing, bad_paths, capsys):
    out = Path(bad_paths["OUT"])
    if existing is not None:
        out.write_text(existing)
    argv = ["construct", "assemble", BOOL2, DUAL2, "--kind",
            "2-bialgebras-B1B2", "--out", "OUT", "--out2", "MISSING"]
    err = _exits_two_with_one_line(argv, bad_paths, capsys)
    assert err.startswith(f"error: cannot write {bad_paths['MISSING']}")
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text() == existing


# Search specs that start no large sweep: dimension 1 sweeps at most
# 7^3 candidates; a larger dimension over GF(2) has over 2^32 candidates
# unless a whole section is pinned, which needs more than the 8 leaves a
# pin may have; the large primes exceed the budget with one free slot;
# every other modulus is composite, below 2, or not a number.
def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


_NOT_INTS = st.text(max_size=4).filter(_not_an_int)
_SEARCH_DIMS = st.one_of(st.integers(-2, 1), st.integers(3, 10 ** 12)
                         ).map(str) | _NOT_INTS
_SEARCH_PRIMES = st.one_of(
    st.sampled_from([2, 3, 5, 7, 2 ** 61 - 1, 10 ** 18 + 3]),
    st.integers(-3, 10 ** 15).map(lambda k: k * k if k > 1 else k)
).map(str) | _NOT_INTS
_PIN_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 10 ** 20),
                        st.text(max_size=3),
                        st.floats(allow_nan=False, allow_infinity=False))
_SEARCH_PINS = st.one_of(
    st.none(), st.text(max_size=12),
    st.recursive(_PIN_LEAVES, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["mu", "mu2", "alpha", "x"]), inner,
                        max_size=3)), max_leaves=8).map(json.dumps))


# Option values of every verb: negative, zero, small, huge and
# non-numeric values for each integer option, and --fixed JSON of each
# type. Each verb runs on inputs that keep it quick: check on a 2-dim
# fixture, search on hom-algebra, corpus on a one-entry table. A
# construct verb takes none of these options, so argparse refuses them.
_INT_OPTIONS = {"check": ("--oracle-samples", "--witness-cap", "--seed"),
                "corpus": ("--oracle-samples", "--seed"),
                "search": ("--dim", "--prime", "--cap")}
_INT_VALUES = st.sampled_from(["-7", "-1", "0", "1", "2", "3", str(10 ** 30),
                               str(-10 ** 30), "", "x", "1.5", "1e3"])


@pytest.fixture(scope="module")
def one_entry_corpus(tmp_path_factory):
    data = tmp_path_factory.mktemp("corpus")
    (data / "ex1.json").write_text(Path(EX1).read_text())
    (data / "expected.json").write_text(
        json.dumps({"format-version": 1, "entries": [_EX1_ENTRY]}))
    return str(data)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(verb=st.sampled_from(["check", "construct", "corpus", "search"]),
       data=st.data())
def test_any_option_values_keep_the_exit_contract(one_entry_corpus, verb,
                                                  data):
    argv = {"check": ["check", DUAL2],
            "construct": ["construct", "op", DUAL2],
            "corpus": ["corpus", "--data", one_entry_corpus],
            "search": ["search", "--kind", "hom-algebra"]}[verb]
    names = _INT_OPTIONS.get(verb) or [data.draw(st.sampled_from(
        sorted({name for names in _INT_OPTIONS.values() for name in names})))]
    for name in names:
        if name in ("--dim", "--prime") or data.draw(st.booleans()):
            argv += [name, data.draw(_INT_VALUES)]
    if verb == "search" and data.draw(st.booleans()):
        argv += ["--fixed", data.draw(_SEARCH_PINS.filter(bool))]
    err = io.StringIO()
    parsed = True
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code, parsed = exc.code, False
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if parsed and code == 2:
        assert len(err.getvalue().splitlines()) == 1, argv

class TestSearch:
    def test_count_four(self, capsys):
        assert main(["search", "--kind", "hom-algebra", "--dim", "1",
                     "--prime", "2", "--cap", "0"]) == 0
        assert capsys.readouterr().out.strip() == "count: 4"

    def test_count_seven(self, capsys):
        assert main(["search", "--kind", "hom-algebra", "--dim", "1",
                     "--prime", "3", "--cap", "0"]) == 0
        assert capsys.readouterr().out.strip() == "count: 7"

    def test_machine_stream_emits_documents(self, capsys):
        assert main(["search", "--kind", "hom-algebra", "--dim", "1",
                     "--prime", "2", "--cap", "2", "--format",
                     "machine"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "count: 4"
        first = json.loads(lines[0])
        assert first["field"] == "gf:2"
        documents.document_to_structure(first)

    def test_fixed_entries_forwarded(self, capsys):
        pinned = json.dumps({"alpha": [[1, 0], [0, 1]]})
        assert main(["search", "--kind", "hom-algebra", "--dim", "2",
                     "--prime", "2", "--cap", "1", "--fixed", pinned,
                     "--format", "machine"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        doc = json.loads(lines[0])
        assert doc["maps"]["alpha"] == [["1", "0"], ["0", "1"]]

    @pytest.mark.parametrize("cap", ["-1", "-7"])
    def test_negative_cap_exits_two(self, cap, capsys):
        assert main(["search", "--kind", "hom-algebra", "--dim", "1",
                     "--prime", "2", "--cap", cap]) == 2
        assert capsys.readouterr() == (
            "", f"invalid search spec: cap must be non-negative, got {cap}\n")

    def test_bad_fixed_json_exits_two(self, capsys):
        assert main(["search", "--kind", "hom-algebra", "--dim", "2",
                     "--prime", "2", "--fixed", "{broken"]) == 2

    def test_budget_exceeded_exits_one(self, capsys):
        assert main(["search", "--kind", "hom-dialgebra", "--dim", "3",
                     "--prime", "5"]) == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        ["--dim", "1", "--fixed", '{"mu": [[1]]}'],  # too shallow
        ["--dim", "2", "--fixed", '{"alpha": [[1, 0], [0]]}'],  # short row
        ["--dim", "2", "--fixed", '{"mu": 5}'],  # not a list
        ["--dim", "1", "--fixed", '[1]'],  # not a section map
        ["--dim", "0"],
        ["--dim", "-1"],
    ])
    def test_malformed_spec_exits_two(self, spec, capsys):
        assert main(["search", "--kind", "hom-algebra", "--prime", "2",
                     *spec]) == 2
        assert "invalid search spec" in capsys.readouterr().err

    def test_bad_pinned_scalar_names_its_section(self, capsys):
        assert main(["search", "--kind", "hom-algebra", "--dim", "2",
                     "--prime", "3", "--fixed",
                     '{"alpha": [[1, "x"], [0, 1]]}']) == 2
        assert capsys.readouterr() == (
            "", "invalid search spec: pinned section 'alpha': bad residue "
                "literal 'x'\n")

    def test_bad_prime_exits_two(self, capsys):
        assert main(["search", "--kind", "hom-algebra", "--dim", "1",
                     "--prime", "4"]) == 2

    def test_large_prime_decided_quickly(self, capsys):
        # trial division up to 10**9 used to hang here; the primality
        # decision itself takes microseconds, the command well under 1 s
        start = time.perf_counter()
        assert fields._is_prime(10 ** 18 + 3)
        assert time.perf_counter() - start < 1
        start = time.perf_counter()
        assert main(["search", "--kind", "hom-algebra", "--dim", "1",
                     "--prime", "1000000000000000003"]) == 1
        assert time.perf_counter() - start < 10
        assert "budget" in capsys.readouterr().err

    def test_modulus_beyond_primality_bound_exits_two(self, capsys):
        assert main(["search", "--kind", "hom-algebra", "--dim", "1",
                     "--prime", str(10 ** 30 + 57)]) == 2

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(SEARCH_KINDS + ("nope",)),
           dim=_SEARCH_DIMS, prime=_SEARCH_PRIMES, fixed=_SEARCH_PINS)
    def test_any_spec_keeps_the_exit_contract(self, kind, dim, prime, fixed):
        argv = ["search", "--kind", kind, "--dim", dim, "--prime", prime,
                "--cap", "1"]
        if fixed is not None:
            argv += ["--fixed", fixed]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestCorpus:
    def test_full_corpus_matches(self, capsys):
        assert main(["corpus", "--oracle-samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "all fixtures match committed verdicts" in out
        assert "expected-fail, paper-claims-pass" in out

    def test_perturbed_fixture_detected(self, tmp_path, capsys):
        import shutil
        work = tmp_path / "corpus"
        shutil.copytree(DATA_DIR, work)
        target = work / "hom3dim_ab.json"
        doc = json.loads(target.read_text())
        doc["maps"]["mu"][0][0][0] = "5"
        target.write_text(json.dumps(doc))
        assert main(["corpus", "--data", str(work),
                     "--oracle-samples", "5"]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_empty_corpus_exits_two(self, tmp_path, capsys):
        assert main(["corpus", "--data", str(tmp_path)]) == 2

    def test_machine_format(self, capsys):
        assert main(["corpus", "--oracle-samples", "2", "--format",
                     "machine"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
