"""Command-line front end.

Subcommands: ``check`` (run a checker suite on a structure document),
``construct`` (execute a construction and write the result), ``search``
(exhaustive enumeration over a prime field), ``corpus`` (re-verify the
bundled examples against their committed verdicts).

Exit codes: 0 all requested checks pass, 1 a check fails or a
construction is rejected, 2 unreadable or invalid input or an unwritable
output path.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from ._kernels import available as available_kernels
from .axioms import (DEFAULT_WITNESS_CAP, coerce_for_check, default_check,
                     run_check)
from .constructions import (CONSTRUCT_VERBS, PAIR_ASSEMBLY, construct,
                            yields_pair)
from .corpus import corpus_run, render_summary
from .documents import (document_to_morphism, document_to_structure, dumps,
                        load_path, structure_to_document, write_texts)
from .errors import (BudgetExceededError, ConstructionError, DocumentError,
                     HomstructError, NotEligibleError, ShapeError)
from .oracle import oracle_crosscheck
from .reports import Report, check_row
from .search import SearchSpec, enumerate_structures
from .structures import validate


def _load_structure(path):
    doc = load_path(path)
    return document_to_structure(doc), doc


def _emit(args, text):
    if args.out:
        text = text if text.endswith("\n") else text + "\n"
        write_texts([(args.out, text)])
    else:
        print(text)


# the most random-vector samples one oracle cross-check may draw: on a
# 2-core Xeon under Python 3.11.7 that many took about 12 s on the
# slowest corpus fixture (trivdialg3dim), and about 8 min on a dim-10
# hom-bialgebra when measured on an earlier version
MAX_ORACLE_SAMPLES = 10 ** 5


def _refused_samples(args) -> bool:
    """Report an ``--oracle-samples`` count below 0 or above
    MAX_ORACLE_SAMPLES on stderr; True if refused."""
    if args.oracle_samples < 0:
        print(f"invalid input: --oracle-samples must be non-negative, got "
              f"{args.oracle_samples}", file=sys.stderr)
        return True
    if args.oracle_samples > MAX_ORACLE_SAMPLES:
        print(f"invalid input: --oracle-samples must be at most "
              f"{MAX_ORACLE_SAMPLES}, got {args.oracle_samples}",
              file=sys.stderr)
        return True
    return False


def cmd_check(args) -> int:
    if _refused_samples(args):
        return 2
    if args.witness_cap < 1:
        print(f"invalid input: --witness-cap must be at least 1, got "
              f"{args.witness_cap}", file=sys.stderr)
        return 2
    try:
        structure, doc = _load_structure(args.path)
    except DocumentError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    findings = validate(structure)
    defects = [str(f) for f in findings if f.severity == "defect"]
    name = (doc.get("metadata") or {}).get("name") or args.path
    report = Report(name, structure.kind, defects=defects)
    if defects:
        print(f"invalid structure: {'; '.join(defects)}", file=sys.stderr)
        return 2
    check_id = args.kind or default_check(structure)
    try:
        target = coerce_for_check(check_id, structure)
    except (ValueError, ShapeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    basis = doc.get("basis") or [f"e{i + 1}" for i in range(structure.dim)]
    verdict = run_check(check_id, target, counit_mode=args.counit_mode,
                        strict_assoc=args.strict_assoc,
                        witness_cap=args.witness_cap)
    oracle = None
    if not args.no_oracle:
        oracle = oracle_crosscheck(target, check_id,
                                   samples=args.oracle_samples,
                                   seed=args.seed,
                                   counit_mode=args.counit_mode,
                                   strict_assoc=args.strict_assoc,
                                   verdict=verdict)
    report.checks.append(check_row(check_id, verdict, structure.field,
                                   basis, oracle))
    for f in findings:
        if f.severity == "warning":
            report.annotations.append(f"warning {f.code}: {f.message}")
    if args.format == "machine":
        _emit(args, json.dumps(report.to_dict(), indent=1))
    else:
        _emit(args, report.render_human())
    passed = verdict.passed and (oracle is None or oracle.agreed)
    return 0 if passed else 1


def _construct(args):
    verb = args.verb
    inputs = CONSTRUCT_VERBS[verb]
    if len(args.inputs) != inputs:
        raise DocumentError(f"{verb} takes {inputs} input document"
                            f"{'s' * (inputs > 1)}, got {len(args.inputs)}")
    if verb == "twist" and not args.alpha:
        raise DocumentError("twist needs --alpha MATRIXFILE")
    structures = [_load_structure(path)[0] for path in args.inputs]
    alpha = None
    if verb == "twist":
        alpha, _, _ = document_to_morphism(load_path(args.alpha))
    return construct(verb, structures, kind=args.kind, variant=args.variant,
                     alpha=alpha, allow_ineligible=args.allow_ineligible)


def cmd_construct(args) -> int:
    if args.out2 and not args.out:
        print("invalid input: --out2 needs --out", file=sys.stderr)
        return 2
    if args.out2 and not yields_pair(args.verb, args.kind):
        print(f"invalid input: --out2 needs a construction that produces a "
              f"pair (assemble --kind {PAIR_ASSEMBLY})", file=sys.stderr)
        return 2
    try:
        out = _construct(args)
    except DocumentError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except NotEligibleError as exc:
        print(f"not eligible: {exc}", file=sys.stderr)
        return 1
    except ConstructionError as exc:
        print(f"construction rejected: {exc}", file=sys.stderr)
        if exc.verdict is not None:
            for w in exc.verdict.witnesses[:4]:
                print(f"  witness {w.label()}", file=sys.stderr)
        return 1

    outputs = out if isinstance(out, tuple) else (out,)
    paths = [path for path in (args.out, args.out2) if path]
    metadata = None
    if args.verb in ("k1", "k2", "assemble"):
        # the adjoined unit sits at index 0; old basis vector i is at i + 1
        metadata = {"adjoined-unit-index": 0, "old-basis-offset": 1}
    lines, writes = [], []
    for idx, s in enumerate(outputs):
        text = dumps(structure_to_document(s, metadata=metadata))
        if idx < len(paths):
            writes.append((paths[idx], text))
            lines.append(f"wrote {s.kind} (dim {s.dim}) to {paths[idx]}")
        else:
            lines.append(text.rstrip())
        # the unit-adjoining extensions also run the infinitesimal check
        post = (("hom-bialgebra", "infinitesimal") if args.verb in ("k1", "k2")
                else (default_check(s),))
        for check_id in post:
            verdict = run_check(check_id, s, counit_mode=args.counit_mode)
            detail = ""
            if not verdict.passed:
                w = verdict.witnesses[0]
                detail = f" (witness {w.label()})"
            lines.append(f"  {check_id}: {verdict.status}{detail}")
    write_texts(writes)
    print("\n".join(lines))
    return 0


def cmd_search(args) -> int:
    fixed = None
    if args.fixed:
        try:
            fixed = json.loads(args.fixed)
        except json.JSONDecodeError as exc:
            print(f"invalid --fixed JSON: {exc}", file=sys.stderr)
            return 2
        except RecursionError:
            print("invalid --fixed JSON: nested too deeply", file=sys.stderr)
            return 2
    spec = SearchSpec(kind=args.kind, dim=args.dim, prime=args.prime,
                      fixed=fixed, require_unit=args.require_unit,
                      cap=args.cap)
    try:
        result = enumerate_structures(spec, kernel=args.kernel)
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 1
    except (ValueError, HomstructError) as exc:
        print(f"invalid search spec: {exc}", file=sys.stderr)
        return 2
    lines = []
    for i, s in enumerate(result.structures):
        doc = structure_to_document(s, name=f"{args.kind}-{i}")
        if args.format == "machine":
            lines.append(json.dumps(doc))
        else:
            lines.append(f"# {i}: {s.kind} dim {s.dim} over gf:{args.prime}")
            lines.append(dumps(doc).rstrip())
    lines.append(f"count: {result.count}")
    _emit(args, "\n".join(lines))
    if args.out:
        print(f"count: {result.count}")
    return 0


def cmd_corpus(args) -> int:
    if _refused_samples(args):
        return 2
    try:
        outcome = corpus_run(samples=args.oracle_samples, seed=args.seed,
                             data_dir=args.data)
    except DocumentError as exc:
        print(f"corpus unavailable: {exc}", file=sys.stderr)
        return 2
    if args.format == "machine":
        print(json.dumps({"ok": outcome.ok, "rows": outcome.rows}, indent=1))
    else:
        print(render_summary(outcome))
    return 0 if outcome.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homstruct",
        description="exact verification of twisted algebraic structures "
                    "given by structure constants")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_check_flags(p):
        p.add_argument("--counit-mode", choices=("eq7", "eq8"), default="eq7",
                       help="counit law: eq7 compares against the squared "
                            "twist, eq8 against the twist with identity legs")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("check", help="run a checker suite on a document")
    p.add_argument("path")
    p.add_argument("--kind", default=None,
                   help="check id to run (default: the document kind's suite)")
    p.add_argument("--strict-assoc", action="store_true",
                   help="demand plain associativity of dialgebra products")
    p.add_argument("--oracle-samples", type=int, default=100,
                   help=f"random-vector samples, 0 to {MAX_ORACLE_SAMPLES}")
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--witness-cap", type=int, default=DEFAULT_WITNESS_CAP,
                   help="witnesses to report, at least 1")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--seed", type=int, default=0)
    common_check_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("construct", help="run a construction")
    p.add_argument("verb", choices=CONSTRUCT_VERBS)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--kind", default="algebra",
                   help="twist kind or assembly kind")
    p.add_argument("--alpha", default=None,
                   help="morphism document holding the twist matrix")
    p.add_argument("--variant", choices=("loday", "aligned"), default="loday")
    p.add_argument("--allow-ineligible", action="store_true",
                   help="build unit-adjoining extensions even when the twist "
                        "does not fix the unit (case-split reading)")
    p.add_argument("--out2", default=None,
                   help="second output path for pair-producing assemblies")
    common_check_flags(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("search", help="enumerate structures over a prime field")
    p.add_argument("--kind", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--require-unit", action="store_true")
    p.add_argument("--cap", type=int, default=16,
                   help="structures to print (the count is always exact)")
    p.add_argument("--fixed", default=None,
                   help="JSON object pinning structure constants")
    p.add_argument("--kernel", choices=("auto",) + available_kernels(),
                   default="auto")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("corpus", help="re-verify the bundled corpus")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--oracle-samples", type=int, default=100,
                   help=f"random-vector samples, 0 to {MAX_ORACLE_SAMPLES}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data", default=None,
                   help="corpus directory (default: the bundled one)")
    p.set_defaults(fn=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HomstructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
