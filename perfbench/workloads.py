"""The benchmark's four workloads.

Each workload builds its fixed inputs once (``setup``), then hands out
rounds of ops (``round``). A round is a fixed multiset of op shapes whose
members the seed fills in, so every round does about the same work
whatever the seed; the runner repeats whole rounds. Every op carries a
gate that checks its result; the runner calls the gate outside the timed
region.

Ops reach homstruct only through module attributes (``axioms.run_check``
rather than an imported name), so that the tracer's rebinding of those
attributes sees every call.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import homstruct  # noqa: E402

if Path(homstruct.__file__).resolve().parent != (SRC / "homstruct").resolve():
    raise ImportError(f"homstruct was imported from {homstruct.__file__}, "
                      f"not from {SRC}")

from homstruct import (_kernels, axioms, constructions, corpus,  # noqa: E402
                       documents, oracle, search, structures)
from homstruct._kernels import pykern  # noqa: E402

import orbits  # noqa: E402

# Oracle samples per corpus check. `homstruct corpus` defaults to 100, but
# a 100-sample pass over the corpus takes about 40 s (2 cores, Python
# 3.11.7), more than one run may measure; 20 samples keep the oracle at
# about four fifths of the pass while a whole pass fits in a run.
CORPUS_ORACLE_SAMPLES = 20

SEARCH_DIM = 2
SEARCH_CAP = 16
SEARCH_PARITY_SAMPLES = 8

CLASSIFY_KINDS = ("hom-algebra", "hom-leibniz", "hom-prelie")
CLASSIFY_SAMPLE = 24
CLASSIFY_OPS_PER_KIND = 14


@dataclass
class Op:
    """One timed call. ``run()`` returns the result; ``gate(result)``
    returns a list of problems, empty when the result is correct.
    ``candidates`` is the number of candidates a search op sweeps."""

    label: str
    run: Callable
    gate: Callable
    candidates: int = 0


def _materialize_corpus():
    table = corpus.load_expected()
    resolved = {}
    for entry in table["entries"]:
        if "fixture" in entry:
            resolved[entry["name"]] = corpus.load_fixture(entry["fixture"])
        else:
            resolved[entry["name"]] = corpus._derive(entry["derive"], resolved)
    return table, resolved


def witness_keys(verdict) -> list:
    """Failing axioms of a verdict as ``where/axiom`` keys, the form
    ``expected.json`` records them in. Kept apart from homstruct's own
    helper, so that the gate does not reuse the code it checks."""
    return sorted({f"{w.where}/{w.axiom}" if w.where else w.axiom
                   for w in verdict.witnesses})


# ---------------------------------------------------------------------------
# corpus: every committed corpus verdict, re-derived with the oracle


def corpus_gate(spec, result) -> list:
    defects, verdict, orc = result
    problems = []
    if defects:
        problems.append(f"validation defects {defects}")
    if verdict.status != spec["status"]:
        problems.append(f"expected {spec['status']}, got {verdict.status}")
    if not orc.agreed:
        problems.append(f"oracle disagrees: {list(orc.mismatches)}")
    if "failing" in spec and witness_keys(verdict) != sorted(spec["failing"]):
        problems.append(f"failing axioms {witness_keys(verdict)} != "
                        f"{sorted(spec['failing'])}")
    return problems


def morphism_gate(expected, result) -> list:
    return [f"{what}: expected {want}, got {got.status}"
            for (what, want), got in zip(expected, result)
            if got.status != want]


class CorpusWorkload:
    name = "corpus"

    def setup(self):
        table, resolved = _materialize_corpus()
        morphisms = []
        for m in table["morphisms"]:
            doc = documents.load_path(corpus.DATA_DIR / m["file"])
            f = documents.document_to_morphism(doc)[0]
            morphisms.append((m, f))
        return {"table": table, "resolved": resolved, "morphisms": morphisms}

    def round(self, state, rng) -> list:
        seed = rng.randrange(2 ** 31)
        resolved = state["resolved"]
        ops = []
        for entry in state["table"]["entries"]:
            for spec in entry.get("checks", []):
                ops.append(self._check_op(resolved[entry["name"]],
                                          entry["name"], spec, seed))
        for m, f in state["morphisms"]:
            ops.append(self._morphism_op(resolved, m, f))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _check_op(s, name, spec, seed):
        check_id = spec["check"]
        mode = spec.get("counit-mode", "eq7")

        def run():
            defects = [str(f) for f in structures.validate(s)
                       if f.severity == "defect"]
            verdict = axioms.run_check(check_id, s, counit_mode=mode)
            orc = oracle.oracle_crosscheck(s, check_id,
                                           samples=CORPUS_ORACLE_SAMPLES,
                                           seed=seed, counit_mode=mode,
                                           verdict=verdict)
            return defects, verdict, orc

        return Op(f"{name}/{check_id}", run,
                  lambda result: corpus_gate(spec, result))

    @staticmethod
    def _morphism_op(resolved, m, f):
        pairs = [(resolved[m["source"]], resolved[m["target"]])]
        expected = [("morphism", m["status"])]
        if "twisted-source" in m:
            pairs.append((resolved[m["twisted-source"]],
                          resolved[m["twisted-target"]]))
            expected.append(("morphism-after-twist",
                             m.get("twisted-status", "pass")))

        def run():
            return [axioms.check_morphism(f, src, dst) for src, dst in pairs]

        return Op(f"{m['name']}/morphism", run,
                  lambda result: morphism_gate(expected, result))


# ---------------------------------------------------------------------------
# check: construct, then check, as `homstruct construct tensor|k1` does

# (dim A, dim B, adjoin a unit with K1, ops per round), cheapest first;
# None takes every ordered pair of the two pools once. K1 slots take two
# unital untwisted factors; the other slots take a first factor that is
# not both, so that the op is the plain tensor-then-check one. With these
# counts the median op falls inside the K1 (2, 2) ops and the tail
# percentile inside the plain (2, 4) ones, not on a boundary between two
# groups of ops, where it would jump from run to run.
CHECK_SLOTS = (
    (2, 3, False, 8),
    (3, 2, False, 8),
    (2, 2, True, None),
    (2, 4, False, 12),
    (2, 3, True, 4),
)


def _unital_untwisted(a) -> bool:
    return a.unit is not None and a.alpha.is_identity()


def check_gate(k1, result) -> list:
    want = ["hom-algebra"] + (["hom-bialgebra", "infinitesimal"] if k1 else [])
    got = [check_id for check_id, _ in result]
    if got != want:
        return [f"ran {got}, expected {want}"]
    return [f"{check_id}: {v.status} ({witness_keys(v)})"
            for check_id, v in result if not v.passed]


class CheckWorkload:
    name = "check"

    def setup(self):
        table, resolved = _materialize_corpus()
        pools = {}
        for entry in table["entries"]:
            a = resolved[entry["name"]]
            passes = any(c["check"] == "hom-algebra" and c["status"] == "pass"
                         for c in entry.get("checks", []))
            if isinstance(a, structures.HomAlgebra) and passes:
                key = (a.dim, _unital_untwisted(a))
                pools.setdefault(key, []).append((entry["name"], a))
        return {"pools": pools}

    def round(self, state, rng) -> list:
        pools = state["pools"]
        ops = []
        for dim_a, dim_b, k1, count in CHECK_SLOTS:
            firsts = pools[(dim_a, True)] if k1 else pools[(dim_a, False)]
            seconds = (pools[(dim_b, True)] if k1 else
                       pools.get((dim_b, True), []) + pools.get((dim_b, False), []))
            if count is None:
                pairs = [(a, b) for a in firsts for b in seconds]
            else:
                # the second factor cycles through its pool so every round
                # holds each one equally often; the seed picks the first
                pairs = [(rng.choice(firsts), seconds[i % len(seconds)])
                         for i in range(count)]
            ops += [self._op(a, b, k1) for a, b in pairs]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(a, b, k1):
        (name_a, alg_a), (name_b, alg_b) = a, b

        def run():
            product = constructions.tensor_product(alg_a, alg_b)
            out = [("hom-algebra", axioms.run_check("hom-algebra", product))]
            if k1:
                ext = constructions.kaplansky_k1(product)
                out += [(c, axioms.run_check(c, ext))
                        for c in ("hom-bialgebra", "infinitesimal")]
            return out

        label = f"{'k1 ' if k1 else ''}{name_a} x {name_b}"
        return Op(label, run, lambda result: check_gate(k1, result))


# ---------------------------------------------------------------------------
# search: exhaustive enumeration with the twist pinned

# One-product kinds sweep 3^8 candidates over GF(3), two-product kinds 2^16
# over GF(2). Twists are invertible: the zero twist makes every candidate
# pass every identity and costs 30 times a typical one. A sweep's cost
# depends on the twist's conjugacy class, so each round holds the same
# classes: over GF(2) every invertible twist once; over GF(3) each class
# the given number of times, as conjugates the seed picks. With these
# counts the median op falls inside the hom-leibniz ops and the tail
# percentile inside the hom-prelie ones, not on a boundary between kinds,
# where it would jump from run to run.
SEARCH_PRIMES = {kind: 3 if n == 1 else 2 for kind, n in pykern.KINDS.items()}
SEARCH_GF3_PER_CLASS = {"hom-algebra": 2, "hom-leibniz": 3, "hom-prelie": 2}


def _flat_candidate(kind, alpha, p, rng):
    total, _, alpha_off = pykern.layout(kind, SEARCH_DIM)
    flat = [rng.randrange(p) for _ in range(total)]
    flat[alpha_off:] = [x for row in alpha for x in row]
    return tuple(flat)


def search_gate(kind, alpha, parity_sample, result) -> list:
    """Materialized structures are the first ``cap`` of the stream: as many
    as the count allows, strictly increasing, carrying the pinned twist,
    and each passes the exact checker. Outside the timed region, the
    kernel that ran and the exact checker agree on ``parity_sample``."""
    p = SEARCH_PRIMES[kind]
    problems = []
    flats = [orbits.flat_of(s) for s in result.structures]
    if len(flats) != min(SEARCH_CAP, result.count):
        problems.append(f"{len(flats)} structures for count {result.count}")
    if any(a >= b for a, b in zip(flats, flats[1:])):
        problems.append("structures out of lexicographic order")
    for s in result.structures:
        if [list(r) for r in s.alpha.rows] != alpha:
            problems.append("structure lost the pinned twist")
        if not axioms.run_check(kind, s).passed:
            problems.append(f"materialized structure fails {kind}")
    kern = _kernels.get_kernel(result.kernel)
    for flat in list(parity_sample) + flats:
        exact = axioms.run_check(kind, search.structure_from_flat(
            kind, flat, SEARCH_DIM, p)).passed
        if bool(kern.passes(kind, list(flat), SEARCH_DIM, p)) != exact:
            problems.append(f"{result.kernel} kernel and exact checker "
                            f"disagree on {flat}")
    return problems


class SearchWorkload:
    name = "search"

    def setup(self):
        classes = {}
        for p in set(SEARCH_PRIMES.values()):
            classes[p] = orbits.conjugacy_classes(
                orbits.general_linear_group(SEARCH_DIM, p), p)
        return {"classes": classes}

    def round(self, state, rng) -> list:
        ops = []
        for kind in search.SEARCH_KINDS:
            p = SEARCH_PRIMES[kind]
            if p == 2:
                twists = [g for c in state["classes"][p] for g in c]
            else:
                twists = [rng.choice(c) for c in state["classes"][p]
                          for _ in range(SEARCH_GF3_PER_CLASS[kind])]
            for g in twists:
                alpha = [list(row) for row in g]
                sample = [_flat_candidate(kind, alpha, p, rng)
                          for _ in range(SEARCH_PARITY_SAMPLES)]
                ops.append(self._op(kind, p, alpha, sample))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(kind, p, alpha, sample):
        spec = search.SearchSpec(kind, SEARCH_DIM, p, fixed={"alpha": alpha},
                                 cap=SEARCH_CAP)

        def run():
            return search.enumerate_structures(spec, kernel="auto")

        free = pykern.layout(kind, SEARCH_DIM)[2]  # everything but the twist
        return Op(f"{kind} gf:{p} alpha={alpha}", run,
                  lambda result: search_gate(kind, alpha, sample, result),
                  p ** free)


# ---------------------------------------------------------------------------
# classify: isomorphism classes of a sample of an enumerated stream


def classify_gate(sample, group, result) -> list:
    index = {id(s): i for i, s in enumerate(sample)}
    try:
        got = {frozenset(index[id(s)] for s in orbit) for orbit in result}
    except KeyError:
        return ["classes hold a structure that is not in the sample"]
    if sum(len(orbit) for orbit in result) != len(sample) or \
            set().union(*got) != set(range(len(sample))):
        return ["classes do not partition the sample"]
    want = orbits.reference_partition(sample, 2, group)
    if got != want:
        return [f"{len(got)} classes, transport gives {len(want)}"]
    return []


class ClassifyWorkload:
    name = "classify"

    def setup(self):
        streams = {}
        for kind in CLASSIFY_KINDS:
            every = 2 ** pykern.layout(kind, 2)[0]  # materialize them all
            spec = search.SearchSpec(kind, 2, 2, cap=every)
            streams[kind] = search.enumerate_structures(spec).structures
        return {"streams": streams,
                "group": orbits.general_linear_group(2, 2)}

    def round(self, state, rng) -> list:
        ops = []
        for kind in CLASSIFY_KINDS:
            for _ in range(CLASSIFY_OPS_PER_KIND):
                sample = rng.sample(state["streams"][kind], CLASSIFY_SAMPLE)
                ops.append(self._op(kind, sample, state["group"]))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(kind, sample, group):
        def run():
            return search.group_by_isomorphism(sample)

        return Op(f"{kind} x{len(sample)}", run,
                  lambda result: classify_gate(sample, group, result))


WORKLOADS = {w.name: w for w in (CorpusWorkload(), CheckWorkload(),
                                 SearchWorkload(), ClassifyWorkload())}
