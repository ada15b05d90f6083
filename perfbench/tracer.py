"""Spans and counts around calls into homstruct's public functions.

The tracer measures each layer from outside: it rebinds a public
function's name in every homstruct module namespace that holds it
(``from .linalg import apply_bilinear`` copies the name into
``homstruct.axioms``, so both bindings are replaced), patches a few
methods on their classes, and wraps the axiom tests handed to
``run_suite`` and returned to the oracle so their evaluations can be
counted. Nothing under ``src/`` changes.

Each wrapped call is a span with a name, start, end, parent and op id.
Self time is a span's duration minus the time its child spans cover.
Every span is folded into per-(name, parent) totals as it closes; spans
of the coarse layer functions are also kept one by one. The hot leaves
(linalg primitives, ``run_suite`` and ``check_morphism``, each called up
to millions of times a run) are only folded, which keeps memory bounded.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import sys
from time import perf_counter

# check ids that some workload runs; one per-id metric each
CHECK_IDS = (
    "hom-algebra", "hom-coalgebra", "hom-bialgebra", "infinitesimal",
    "hom-dialgebra", "differential", "hom-leibniz", "hom-prelie", "hlsda",
    "2-hom-assoc-algebra", "2-hom-assoc-bialgebra", "2-hom-bialgebra",
    "2-2-hom-bialgebra",
)

LINALG_FUNCTIONS = ("apply_bilinear", "apply_coproduct", "bullet",
                    "tensors_equal")

# spans stored one by one, beyond the per-(name, parent) totals
MAX_STORED_SPANS = 200_000


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    def __init__(self):
        self.stack = []          # open frames: [name, start, child_s, span_id]
        self.edges = {}          # (name, parent name) -> [calls, total_s, self_s]
        self.spans = []          # (id, name, start, end, parent id, op id)
        self.counts = collections.Counter()
        self.op_id = None
        self.active = True
        self._next_id = 0
        self._dropped = 0
        self._undo = []

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, fn, name, store, before=None, after=None):
        """``name`` is a string or ``name(args, kwargs)``; ``before`` may
        rewrite the arguments, ``after(args, kwargs, result)`` counts."""
        stack, edges, spans = self.stack, self.edges, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else None
            if store:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[3] if parent else None
            frame = [label, 0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                key = (label, parent[0] if parent else None)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[2]
                if store:
                    if len(spans) < MAX_STORED_SPANS:
                        spans.append((span_id, label, start, end,
                                      parent[3] if parent else None,
                                      self.op_id))
                    else:
                        self._dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a stored span (the runner's ops and setup)."""
        return self._wrap(fn, name, True)(*args, **kwargs)

    def _counting_tests(self, tests, key):
        counts = self.counts

        def counted(evaluate):
            def run(*vectors):
                counts[key] += 1
                return evaluate(*vectors)
            return run

        return [dataclasses.replace(t, evaluate=counted(t.evaluate))
                for t in tests]

    # -- installation -------------------------------------------------------

    def _rebind(self, original, wrapper, only=None):
        """Replace ``original`` by ``wrapper`` wherever a homstruct module
        binds it (or only in the module names listed in ``only``)."""
        for modname, module in list(sys.modules.items()):
            if not (modname == "homstruct" or modname.startswith("homstruct.")):
                continue
            if only is not None and modname not in only:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        from homstruct import (_kernels, axioms, constructions, corpus,
                               documents, oracle, search, structures)
        from homstruct.fields import PrimeField, RationalField
        from homstruct.linalg import LinearMap
        import homstruct.linalg as linalg

        counts = self.counts

        def run_suite_args(args, kwargs):
            args = list(args)
            if "tests" in kwargs:
                kwargs = dict(kwargs, tests=self._counting_tests(
                    kwargs["tests"], "axioms.tuples_evaluated"))
            else:
                args[2] = self._counting_tests(args[2],
                                               "axioms.tuples_evaluated")
            return tuple(args), kwargs

        def run_suite_result(args, kwargs, verdict):
            counts["axioms.witnesses"] += len(verdict.witnesses)

        def suite_for_result(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tests = fn(*args, **kwargs)
                if not self.active:
                    return tests
                return self._counting_tests(tests, "oracle.samples_evaluated")
            return wrapper

        def found(args, kwargs, result):
            counts["search.morphisms_found"] += len(result)

        def swept(args, kwargs, result):
            p, fixed = _arg(args, kwargs, 2, "p"), _arg(args, kwargs, 3, "fixed")
            counts["kernels.candidates_visited"] += p ** sum(1 for x in fixed
                                                             if x < 0)
            counts["kernels.candidates_accepted"] += result[0]

        def spanned(fn, name, store=True, before=None, after=None):
            return self._wrap(fn, name, store, before, after)

        targets = [
            (axioms.run_check, spanned(
                axioms.run_check,
                lambda a, k: "axioms.run_check." + _arg(a, k, 0, "check_id"))),
            (axioms.run_suite, spanned(axioms.run_suite, "axioms.run_suite",
                                       False, run_suite_args,
                                       run_suite_result)),
            (axioms.check_morphism, spanned(axioms.check_morphism,
                                            "axioms.check_morphism", False)),
            (oracle.oracle_crosscheck, spanned(
                oracle.oracle_crosscheck,
                lambda a, k: "oracle.crosscheck." + _arg(a, k, 1, "check_id"))),
            (structures.validate, spanned(structures.validate,
                                          "structures.validate")),
            (search.enumerate_structures, spanned(
                search.enumerate_structures, "search.enumerate_structures")),
            (search.find_morphisms, spanned(search.find_morphisms,
                                            "search.find_morphisms",
                                            after=found)),
            (search.group_by_isomorphism, spanned(
                search.group_by_isomorphism, "search.group_by_isomorphism")),
            (search.structure_from_flat, spanned(search.structure_from_flat,
                                                 "search.materialize")),
            (corpus.load_fixture, spanned(corpus.load_fixture,
                                          "corpus.materialize")),
            (corpus._derive, spanned(corpus._derive, "corpus.materialize")),
        ]
        for fname in ("load_path", "document_to_structure",
                      "document_to_morphism"):
            fn = getattr(documents, fname)
            targets.append((fn, spanned(fn, f"documents.{fname}")))
        for fname, fn in vars(constructions).items():
            if (inspect.isfunction(fn) and not fname.startswith("_")
                    and fn.__module__ == constructions.__name__):
                targets.append((fn, spanned(fn, f"constructions.{fname}")))
        for fname in LINALG_FUNCTIONS:
            fn = getattr(linalg, fname)
            targets.append((fn, spanned(fn, f"linalg.{fname}", False)))
        for original, wrapper in targets:
            self._rebind(original, wrapper)
        # the oracle's suite only: axioms builds composite suites from
        # suite_for itself, and those tests must be counted once
        self._rebind(axioms.suite_for, suite_for_result(axioms.suite_for),
                     only=("homstruct.oracle",))

        self._patch(LinearMap, "apply",
                    spanned(LinearMap.apply, "linalg.map_apply", False))
        for kern in {_kernels.get_kernel("auto"), _kernels.get_kernel("python")}:
            self._patch(kern, "sweep",
                        spanned(kern.sweep, "kernels.sweep", after=swept))
        for cls, tag in ((RationalField, "rational"), (PrimeField, "prime")):
            for op in ("add", "mul"):
                self._patch(cls, op, self._field_counter(
                    getattr(cls, op), f"fields.{tag}.{op}_calls"))
        return self

    def _field_counter(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(field, a, b):
            if self.active:
                counts[key] += 1
            return fn(field, a, b)

        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def totals(self, match, top_level=False):
        """(calls, total_s, self_s) over spans whose name satisfies
        ``match``; with ``top_level``, only those not nested in one."""
        calls = total = own = 0
        for (name, parent), (c, t, s) in self.edges.items():
            if match(name) and not (top_level and parent and match(parent)):
                calls += c
                total += t
                own += s
        return calls, total, own

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "spans_dropped": self._dropped,
            "edges": [[name, parent, *vals]
                      for (name, parent), vals in sorted(
                          self.edges.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            "counts": dict(self.counts),
        }


def layer_metrics(tracer: Tracer, ops_per_s: float) -> dict:
    """Every per-layer metric, derived from the tracer's spans and counts."""
    counts = tracer.counts

    def named(name):
        return lambda n: n == name

    def prefixed(prefix):
        return lambda n: n.startswith(prefix)

    def calls(match, top_level=False):
        return tracer.totals(match, top_level)[0]

    def secs(match, top_level=False):
        return tracer.totals(match, top_level)[1]

    def self_secs(match):
        return tracer.totals(match)[2]

    def edge_calls(name, parent):
        return tracer.edges.get((name, parent), [0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "oracle.crosscheck.s": secs(prefixed("oracle.crosscheck.")),
        "oracle.crosscheck.self_s": self_secs(prefixed("oracle.crosscheck.")),
        "oracle.samples_evaluated": counts["oracle.samples_evaluated"],
        "axioms.run_suite.s": secs(named("axioms.run_suite")),
        "axioms.run_suite.self_s": self_secs(named("axioms.run_suite")),
        "axioms.tuples_evaluated": counts["axioms.tuples_evaluated"],
        "axioms.witnesses": counts["axioms.witnesses"],
        "axioms.check_morphism.calls": calls(named("axioms.check_morphism")),
        "axioms.check_morphism.s": secs(named("axioms.check_morphism")),
    }
    for check_id in CHECK_IDS:
        m[f"oracle.crosscheck.{check_id}.s"] = secs(
            named(f"oracle.crosscheck.{check_id}"))
        m[f"axioms.run_check.{check_id}.s"] = secs(
            named(f"axioms.run_check.{check_id}"))
    for fname in LINALG_FUNCTIONS + ("map_apply",):
        m[f"linalg.{fname}.calls"] = calls(named(f"linalg.{fname}"))
        m[f"linalg.{fname}.s"] = secs(named(f"linalg.{fname}"))
    for tag in ("rational", "prime"):
        for op in ("mul", "add"):
            m[f"fields.{tag}.{op}_calls"] = counts[f"fields.{tag}.{op}_calls"]
    constructions = prefixed("constructions.")
    candidates = edge_calls("axioms.check_morphism", "search.find_morphisms")
    found = counts["search.morphisms_found"]
    visited = counts["kernels.candidates_visited"]
    sweep_s = secs(named("kernels.sweep"))
    m.update({
        "constructions.calls": calls(constructions, top_level=True),
        "constructions.s": secs(constructions, top_level=True),
        "search.find_morphisms.calls": calls(named("search.find_morphisms")),
        "search.find_morphisms.s": secs(named("search.find_morphisms")),
        "search.morphism_candidates": candidates,
        "search.morphisms_found": found,
        "search.morphism_accept_ratio": ratio(found, candidates),
        "search.isomorphic_tests": edge_calls("search.find_morphisms",
                                              "search.group_by_isomorphism"),
        "search.group_by_isomorphism.s": secs(
            named("search.group_by_isomorphism")),
        "search.materialize.s": secs(named("search.materialize")),
        "kernels.sweep.s": sweep_s,
        "kernels.candidates_visited": visited,
        "kernels.candidates_accepted": counts["kernels.candidates_accepted"],
        "kernels.accept_ratio": ratio(counts["kernels.candidates_accepted"],
                                      visited),
        "kernels.candidates_per_s": ratio(visited, sweep_s),
        "structures.validate.s": secs(named("structures.validate")),
        "documents.load.s": secs(prefixed("documents."), top_level=True),
        "corpus.materialize.s": secs(named("corpus.materialize"),
                                     top_level=True),
        "trace.ops_per_s": ops_per_s,
    })
    return m
