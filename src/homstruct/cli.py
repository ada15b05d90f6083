"""Command-line front end.

Subcommands: ``check`` (run a checker suite on a structure document),
``construct`` (execute a construction and write the result), ``search``
(exhaustive enumeration over a prime field), ``corpus`` (re-verify the
bundled examples against their committed verdicts).

Exit codes: 0 all requested checks pass, 1 a check fails or a
construction is rejected, 2 unreadable or invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, constructions
from ._kernels import available as available_kernels
from .axioms import coerce_for_check, run_check
from .corpus import corpus_run, render_summary
from .documents import (document_to_morphism, document_to_structure, dumps,
                        load_path, save_path, structure_to_document)
from .errors import (BudgetExceededError, ConstructionError, DocumentError,
                     HomstructError, NotEligibleError, ShapeError)
from .oracle import oracle_crosscheck
from .reports import Report, check_row
from .search import SearchSpec, enumerate_structures
from .structures import HomAlgebra, HomBialgebra, HomCoalgebra, validate

DEFAULT_CHECKS = {
    "hom-algebra": ("hom-algebra",),
    "hom-coalgebra": ("hom-coalgebra",),
    "hom-bialgebra": ("hom-bialgebra",),
    "2-hom-assoc-algebra": ("2-hom-assoc-algebra",),
    "2-hom-assoc-bialgebra": ("2-hom-assoc-bialgebra",),
    "2-hom-bialgebra": ("2-hom-bialgebra",),
    "2-2-hom-bialgebra": ("2-2-hom-bialgebra",),
    "hom-dialgebra": ("hom-dialgebra",),
    "differential-hom-algebra": ("differential",),
    "hom-leibniz": ("hom-leibniz",),
    "hom-prelie": ("hom-prelie",),
    "hlsda": ("hlsda",),
    "affine-hom-leibniz": ("affine",),
}

def _load_structure(path):
    try:
        doc = load_path(path)
        return document_to_structure(doc), doc
    except FileNotFoundError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_check(args) -> int:
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
    check_ids = ((args.kind,) if args.kind
                 else DEFAULT_CHECKS.get(structure.kind, (structure.kind,)))
    try:
        targets = [(c, coerce_for_check(c, structure)) for c in check_ids]
    except (ValueError, ShapeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    basis = doc.get("basis") or [f"e{i + 1}" for i in range(structure.dim)]
    all_pass = True
    for check_id, target in targets:
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
            if not oracle.agreed:
                all_pass = False
        report.checks.append(check_row(check_id, verdict, structure.field,
                                       basis, oracle))
        all_pass = all_pass and verdict.passed
    for f in findings:
        if f.severity == "warning":
            report.annotations.append(f"warning {f.code}: {f.message}")
    if args.format == "machine":
        _emit(args, json.dumps(report.to_dict(), indent=1))
    else:
        _emit(args, report.render_human())
    return 0 if all_pass else 1


_CONSTRUCT_POST = {
    "twist": {"algebra": ("hom-algebra",),
              "2-assoc-algebra": ("2-hom-assoc-algebra",),
              "dialgebra": ("hom-dialgebra",),
              "leibniz": ("hom-leibniz",),
              "hlsda": ("hlsda",)},
    "k1": ("hom-bialgebra", "infinitesimal"),
    "k2": ("hom-bialgebra", "infinitesimal"),
    "assemble": None,  # post suite depends on the assembly kind
    "tensor": ("hom-algebra",),
    "op": None,
    "cop": None,
    "dialg-from-diff": ("hom-dialgebra",),
    "leibniz-from-diff": ("hom-leibniz",),
    "bracket": ("hom-leibniz",),
    "hlsda-from-affine": ("hlsda",),
    "trivial-dialg": ("hom-dialgebra",),
}


def _construct(args):
    verb = args.verb
    if verb == "twist":
        if not args.alpha:
            raise DocumentError("twist needs --alpha MATRIXFILE")
        if args.kind not in _CONSTRUCT_POST["twist"]:
            raise ConstructionError(f"unknown twist kind {args.kind!r}")
        s, _ = _load_structure(args.inputs[0])
        alpha, _, _ = document_to_morphism(load_path(args.alpha))
        return constructions.yau_twist(args.kind, s, alpha), \
            _CONSTRUCT_POST["twist"][args.kind]
    if verb in ("k1", "k2"):
        s, _ = _load_structure(args.inputs[0])
        fn = (constructions.kaplansky_k1 if verb == "k1"
              else constructions.kaplansky_k2)
        return fn(s, allow_ineligible=args.allow_ineligible), \
            _CONSTRUCT_POST[verb]
    if verb == "assemble":
        a, _ = _load_structure(args.inputs[0])
        b, _ = _load_structure(args.inputs[1])
        out = constructions.assemble_two(args.kind, a, b,
                                         args.allow_ineligible)
        if isinstance(out, tuple):
            return out, ("2-hom-bialgebra",)
        post = {"2-assoc-bialgebra-B1": ("2-hom-assoc-bialgebra",),
                "2-2-bialgebra": ("2-2-hom-bialgebra",)}[args.kind]
        return out, post
    if verb == "tensor":
        a, _ = _load_structure(args.inputs[0])
        b, _ = _load_structure(args.inputs[1])
        return constructions.tensor_product(a, b), _CONSTRUCT_POST["tensor"]
    if verb in ("op", "cop"):
        s, doc = _load_structure(args.inputs[0])
        if verb == "op":
            if not isinstance(s, (HomAlgebra, HomBialgebra)):
                raise ConstructionError("op needs a product-carrying kind")
            if isinstance(s, HomAlgebra):
                out = HomAlgebra(constructions.opposite(s.mu), s.alpha, s.unit)
            else:
                out = HomBialgebra(constructions.opposite(s.mu), s.unit,
                                   s.delta, s.counit, s.alpha)
        else:
            if isinstance(s, HomCoalgebra):
                out = HomCoalgebra(constructions.coopposite(s.delta), s.alpha,
                                   s.counit)
            elif isinstance(s, HomBialgebra):
                out = HomBialgebra(s.mu, s.unit,
                                   constructions.coopposite(s.delta),
                                   s.counit, s.alpha)
            else:
                raise ConstructionError("cop needs a coproduct-carrying kind")
        return out, DEFAULT_CHECKS.get(out.kind)
    if verb == "dialg-from-diff":
        s, _ = _load_structure(args.inputs[0])
        return constructions.dialgebra_from_differential(s), \
            _CONSTRUCT_POST[verb]
    if verb == "leibniz-from-diff":
        s, _ = _load_structure(args.inputs[0])
        return constructions.leibniz_from_differential(s), \
            _CONSTRUCT_POST[verb]
    if verb == "bracket":
        s, _ = _load_structure(args.inputs[0])
        return constructions.bracket_from_dialgebra(s, args.variant), \
            _CONSTRUCT_POST[verb]
    if verb == "hlsda-from-affine":
        s, _ = _load_structure(args.inputs[0])
        return constructions.hlsda_from_affine(s), _CONSTRUCT_POST[verb]
    if verb == "trivial-dialg":
        s, _ = _load_structure(args.inputs[0])
        return constructions.trivial_dialgebra(s), _CONSTRUCT_POST[verb]
    raise ConstructionError(f"unknown construct verb {verb!r}")


def cmd_construct(args) -> int:
    try:
        out, post = _construct(args)
    except (DocumentError, FileNotFoundError) as exc:
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
    paths = [args.out] if args.out else []
    if args.out2:
        paths.append(args.out2)
    metadata = None
    if args.verb in ("k1", "k2", "assemble"):
        # the adjoined unit sits at index 0; old basis vector i is at i + 1
        metadata = {"adjoined-unit-index": 0, "old-basis-offset": 1}
    lines = []
    for idx, s in enumerate(outputs):
        doc = structure_to_document(s, metadata=metadata)
        if idx < len(paths):
            save_path(paths[idx], doc)
            lines.append(f"wrote {s.kind} (dim {s.dim}) to {paths[idx]}")
        else:
            lines.append(dumps(doc).rstrip())
        for check_id in (post or ()):
            verdict = run_check(check_id, s, counit_mode=args.counit_mode)
            detail = ""
            if not verdict.passed:
                w = verdict.witnesses[0]
                detail = f" (witness {w.label()})"
            lines.append(f"  {check_id}: {verdict.status}{detail}")
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
        p.add_argument("--witness-cap", type=int, default=16)
        p.add_argument("--format", choices=("human", "machine"),
                       default="human")
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("check", help="run a checker suite on a document")
    p.add_argument("path")
    p.add_argument("--kind", default=None,
                   help="check id to run (default: the document kind's suite)")
    p.add_argument("--strict-assoc", action="store_true",
                   help="demand plain associativity of dialgebra products")
    p.add_argument("--oracle-samples", type=int, default=100)
    p.add_argument("--no-oracle", action="store_true")
    common_check_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("construct", help="run a construction")
    p.add_argument("verb", choices=sorted(_CONSTRUCT_POST))
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
    p.add_argument("--oracle-samples", type=int, default=100)
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
