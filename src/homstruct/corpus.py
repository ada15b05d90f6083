"""The bundled example corpus and its drift-checking runner.

Fixtures are structure documents whose expected verdicts were produced
by the checkers plus the random-vector oracle when the corpus was
authored, then committed. The runner re-derives every verdict and fails
on any drift. Rows whose published source claims a different verdict
than direct evaluation carry a ``paper-discrepancy`` annotation; the
runner reports them as expected-fail rows rather than silently fixing
the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import constructions
from .axioms import (CHECK_IDS, COUNIT_MODES, check_morphism,
                     coerce_for_check, run_check)
from .documents import document_to_morphism, document_to_structure, load_path
from .errors import DocumentError
from .oracle import oracle_crosscheck
from .structures import TwoHomStructure, validate

DATA_DIR = Path(__file__).parent / "corpus_data"


@dataclass
class CorpusOutcome:
    ok: bool
    rows: list = field(default_factory=list)
    messages: list = field(default_factory=list)


# corpus op -> the check id whose structure type it reads its input as
_COERCIONS = {"as-hlsda": "hlsda", "as-prelie": "hom-prelie",
              "algebra-of": "hom-algebra"}


def _derive(spec, resolved):
    op = spec["op"]
    if op in constructions.CONSTRUCT_VERBS:
        names = spec["inputs"] if "inputs" in spec else [spec["input"]]
        out = constructions.construct(
            op, [resolved[name] for name in names], kind=spec.get("kind"),
            variant=spec.get("variant"),
            allow_ineligible=spec.get("allow-ineligible", False))
        if isinstance(out, tuple):
            return out[spec.get("select", 0)]
        return out
    if op in _COERCIONS:
        return coerce_for_check(_COERCIONS[op], resolved[spec["input"]])
    if op == "promote-two-hom":
        s = resolved[spec["input"]]
        delta2 = s.delta2 if s.delta2 is not None else s.delta1
        counit2 = s.counit2 if s.counit2 is not None else s.counit1
        return TwoHomStructure(spec["variant"], s.mu1, s.mu2, s.alpha, s.unit,
                               s.delta1, delta2, s.counit1, counit2)
    if op == "op-cop-pair":
        b = resolved[spec["input"]]
        return TwoHomStructure("2-hom-bialgebra", b.mu,
                               constructions.opposite(b.mu), b.alpha, b.unit,
                               b.delta, constructions.coopposite(b.delta),
                               b.counit, b.counit)
    raise DocumentError(f"unknown corpus derivation op {op!r}")


def load_expected(data_dir=None) -> dict:
    data_dir = Path(data_dir) if data_dir else DATA_DIR
    path = data_dir / "expected.json"
    if not path.exists():
        raise DocumentError(f"no expected-verdict table at {path}")
    table = load_path(path)
    if not isinstance(table, dict) or table.get("format-version") != 1:
        raise DocumentError("unsupported expected-verdict format")
    _check_table(table)
    return table


_TYPE_NAMES = {str: "a string", list: "a list", dict: "an object"}


def _require(value, kind, where):
    if not isinstance(value, kind):
        raise DocumentError(f"expected-verdict table: {where} must be "
                            f"{_TYPE_NAMES[kind]}")


def _require_one_of(value, names, where):
    if value not in names:
        raise DocumentError(f"expected-verdict table: {where} must be one "
                            f"of {', '.join(names)}")


def _require_strings(value, where):
    _require(value, list, where)
    for i, item in enumerate(value):
        _require(item, str, f"{where}[{i}]")


def _check_table(table):
    """Raise ``DocumentError`` unless every field the runner reads from
    the table has the type it reads it as, and every check id and counit
    mode is one the checkers know."""
    entries = table.get("entries")
    _require(entries, list, "entries")
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        _require(entry, dict, where)
        _require(entry.get("name"), str, f"{where}.name")
        if "fixture" in entry:
            _require(entry["fixture"], str, f"{where}.fixture")
        else:
            _require(entry.get("derive"), dict, f"{where}.derive")
        _require_strings(entry.get("annotations", []), f"{where}.annotations")
        checks = entry.get("checks", [])
        _require(checks, list, f"{where}.checks")
        for j, spec in enumerate(checks):
            at = f"{where}.checks[{j}]"
            _require(spec, dict, at)
            for key in ("check", "status"):
                _require(spec.get(key), str, f"{at}.{key}")
            _require_one_of(spec["check"], CHECK_IDS, f"{at}.check")
            if "counit-mode" in spec:
                _require_one_of(spec["counit-mode"], COUNIT_MODES,
                                f"{at}.counit-mode")
            if "failing" in spec:
                _require_strings(spec["failing"], f"{at}.failing")
    morphisms = table.get("morphisms", [])
    _require(morphisms, list, "morphisms")
    for i, mentry in enumerate(morphisms):
        where = f"morphisms[{i}]"
        _require(mentry, dict, where)
        for key in ("name", "file", "source", "target", "status"):
            _require(mentry.get(key), str, f"{where}.{key}")
        for key in ("twisted-source", "twisted-target", "twisted-status"):
            if key in mentry:
                _require(mentry[key], str, f"{where}.{key}")


def load_fixture(name, data_dir=None):
    data_dir = Path(data_dir) if data_dir else DATA_DIR
    return document_to_structure(load_path(data_dir / name))


def corpus_run(samples: int = 100, seed: int = 0, data_dir=None) -> CorpusOutcome:
    """Re-check every corpus entry against its committed verdicts."""
    data_dir = Path(data_dir) if data_dir else DATA_DIR
    if not data_dir.exists() or not any(data_dir.glob("*.json")):
        raise DocumentError(f"corpus directory {data_dir} is empty or missing")
    table = load_expected(data_dir)
    outcome = CorpusOutcome(ok=True)
    resolved = {}

    for entry in table["entries"]:
        name = entry["name"]
        row = {"name": name, "checks": [],
               "annotations": list(entry.get("annotations", []))}
        try:
            if "fixture" in entry:
                structure = load_fixture(entry["fixture"], data_dir)
            else:
                structure = _derive(entry["derive"], resolved)
        except Exception as exc:
            outcome.ok = False
            row["error"] = f"{type(exc).__name__}: {exc}"
            outcome.rows.append(row)
            outcome.messages.append(f"{name}: cannot materialize ({exc})")
            continue
        resolved[name] = structure

        defects = [str(f) for f in validate(structure) if f.severity == "defect"]
        if defects:
            outcome.ok = False
            row["error"] = f"validation defects: {defects}"
            outcome.rows.append(row)
            outcome.messages.append(f"{name}: validation defects {defects}")
            continue

        for check_spec in entry.get("checks", []):
            check_id = check_spec["check"]
            counit_mode = check_spec.get("counit-mode", "eq7")
            verdict = run_check(check_id, structure, counit_mode=counit_mode)
            oracle = oracle_crosscheck(structure, check_id, samples=samples,
                                       seed=seed, counit_mode=counit_mode,
                                       verdict=verdict)
            got = {"check": check_id, "expected": check_spec["status"],
                   "actual": verdict.status, "oracle": oracle.status}
            match = verdict.status == check_spec["status"] and oracle.agreed
            if "failing" in check_spec:
                got["failing"] = verdict.failing_keys()
                if got["failing"] != sorted(check_spec["failing"]):
                    match = False
            got["match"] = match
            if not match:
                outcome.ok = False
                outcome.messages.append(
                    f"{name}/{check_id}: expected {check_spec['status']}, "
                    f"got {verdict.status} (oracle {oracle.status})")
            row["checks"].append(got)
        outcome.rows.append(row)

    for mentry in table.get("morphisms", []):
        name = mentry["name"]
        row = {"name": name, "checks": [], "annotations": []}
        try:
            f, _, _ = document_to_morphism(load_path(data_dir / mentry["file"]))
            src = resolved[mentry["source"]]
            dst = resolved[mentry["target"]]
            verdict = check_morphism(f, src, dst)
            got = {"check": "morphism", "expected": mentry["status"],
                   "actual": verdict.status,
                   "match": verdict.status == mentry["status"]}
            row["checks"].append(got)
            if not got["match"]:
                outcome.ok = False
                outcome.messages.append(f"{name}: morphism verdict drifted")
            if "twisted-source" in mentry:
                tsrc = resolved[mentry["twisted-source"]]
                tdst = resolved[mentry["twisted-target"]]
                tverdict = check_morphism(f, tsrc, tdst)
                tgot = {"check": "morphism-after-twist",
                        "expected": mentry.get("twisted-status", "pass"),
                        "actual": tverdict.status}
                tgot["match"] = tgot["actual"] == tgot["expected"]
                row["checks"].append(tgot)
                if not tgot["match"]:
                    outcome.ok = False
                    outcome.messages.append(
                        f"{name}: twisted morphism verdict drifted")
        except Exception as exc:
            outcome.ok = False
            row["error"] = f"{type(exc).__name__}: {exc}"
            outcome.messages.append(f"{name}: cannot check ({exc})")
        outcome.rows.append(row)
    return outcome


def render_summary(outcome: CorpusOutcome) -> str:
    lines = []
    width = max((len(r["name"]) for r in outcome.rows), default=10) + 2
    for row in outcome.rows:
        if "error" in row:
            lines.append(f"{row['name']:<{width}} ERROR  {row['error']}")
            continue
        for c in row["checks"]:
            flag = "ok   " if c["match"] else "DRIFT"
            expected = c["expected"]
            note = ""
            if expected == "fail" and any(
                    a.startswith("paper-discrepancy")
                    for a in row.get("annotations", [])):
                note = "  (expected-fail, paper-claims-pass)"
            oracle = f" oracle={c['oracle']}" if "oracle" in c else ""
            lines.append(f"{row['name']:<{width}} {flag} {c['check']}: "
                         f"expected {expected}, got {c['actual']}{oracle}{note}")
    lines.append("corpus: " + ("all fixtures match committed verdicts"
                               if outcome.ok else "DRIFT DETECTED"))
    return "\n".join(lines)
