"""Check reports: one machine-readable dict per structure plus a stable
human rendering. The machine dict holds only JSON types, so it survives
``json.dumps`` and ``json.loads`` unchanged."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .axioms import Verdict
from .linalg import Tensor2, Tensor3, Vector
from .oracle import OracleResult
from .structures import write_nested

REPORT_VERSION = 1


# witness value class -> its key in a report and the attribute holding
# its entries as nested tuples
_WITNESS_FORMS = ((Vector, "vector", "coords"),
                  (Tensor2, "tensor2", "entries"),
                  (Tensor3, "tensor3", "entries"))


def _format_value(fieldobj, value):
    for cls, key, attr in _WITNESS_FORMS:
        if isinstance(value, cls):
            return {key: write_nested(getattr(value, attr), fieldobj.format)}
    return {"raw": repr(value)}


def witness_row(fieldobj, w, basis) -> dict:
    return {
        "axiom": w.axiom,
        "where": w.where,
        "basis": [basis[i] for i in w.at],
        "lhs": _format_value(fieldobj, w.lhs),
        "rhs": _format_value(fieldobj, w.rhs),
    }


def check_row(check_id: str, verdict: Verdict, fieldobj, basis,
              oracle: Optional[OracleResult] = None) -> dict:
    row = {
        "check": check_id,
        "status": verdict.status,
        "witnesses": [witness_row(fieldobj, w, basis)
                      for w in verdict.witnesses],
        "info": [{"name": note.name, "holds": note.holds}
                 for note in verdict.info],
    }
    if verdict.truncated:
        row["witnesses-truncated"] = True
    if oracle is not None:
        row["oracle"] = {"status": oracle.status, "samples": oracle.samples,
                         "seed": oracle.seed,
                         "mismatches": list(oracle.mismatches)}
    return row


@dataclass
class Report:
    structure: str
    kind: str
    checks: list = field(default_factory=list)
    defects: list = field(default_factory=list)
    annotations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.defects and all(c["status"] == "pass"
                                        for c in self.checks)

    def to_dict(self) -> dict:
        out = {
            "format-version": REPORT_VERSION,
            "structure": self.structure,
            "kind": self.kind,
            "checks": self.checks,
        }
        if self.defects:
            out["defects"] = self.defects
        if self.annotations:
            out["annotations"] = self.annotations
        return out

    def render_human(self) -> str:
        lines = [f"structure {self.structure} ({self.kind})"]
        for d in self.defects:
            lines.append(f"  defect: {d}")
        for c in self.checks:
            head = f"  {c['check']}: {c['status'].upper()}"
            oracle = c.get("oracle")
            if oracle is not None:
                head += (f"  [oracle {oracle['status']}, "
                         f"{oracle['samples']} samples, seed {oracle['seed']}]")
            lines.append(head)
            for w in c["witnesses"]:
                where = f"{w['where']}/" if w["where"] else ""
                at = ", ".join(w["basis"])
                lines.append(f"    witness {where}{w['axiom']} @ ({at}): "
                             f"lhs={_brief(w['lhs'])} rhs={_brief(w['rhs'])}")
            if c.get("witnesses-truncated"):
                lines.append("    (witness list truncated at the cap)")
            for note in c["info"]:
                state = "holds" if note["holds"] else "fails"
                lines.append(f"    info {note['name']}: {state}")
        for a in self.annotations:
            lines.append(f"  note: {a}")
        return "\n".join(lines)


def _brief(value: dict) -> str:
    for key in ("vector", "tensor2", "tensor3", "raw"):
        if key in value:
            return str(value[key]).replace("'", "")
    return "?"
