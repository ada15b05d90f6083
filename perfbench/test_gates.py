"""Tests for the benchmark's gates, its orbit reference and its tracer.

    python3 -m pytest -q perfbench

Each gate must accept the real result of an op and reject a deliberately
wrong one.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

import orbits
import run
import tracer as tracing
import workloads
from homstruct import axioms, search
from homstruct.search import SearchSpec, enumerate_structures

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _flipped(verdict):
    """A pass turned into a fail, or a fail into a pass."""
    if verdict.passed:
        w = axioms.Witness("hom-associativity", (0, 0, 0), None, None)
        return dataclasses.replace(verdict, witnesses=(w,))
    return dataclasses.replace(verdict, witnesses=())


def _ops(name, seed=0):
    w = workloads.WORKLOADS[name]
    return w.round(w.setup(), random.Random(seed))


@pytest.fixture(scope="module")
def corpus_ops():
    return {op.label: op for op in _ops("corpus")}


@pytest.mark.parametrize("label", ["ex1/hom-bialgebra", "kx3/hom-algebra",
                                   "twohom2dim/2-hom-assoc-algebra"])
def test_corpus_gate(corpus_ops, label):
    op = corpus_ops[label]
    defects, verdict, orc = op.run()
    assert op.gate((defects, verdict, orc)) == []
    assert op.gate((defects, _flipped(verdict), orc))
    disagreeing = dataclasses.replace(orc, agreed=False)
    assert op.gate((defects, verdict, disagreeing))


def test_corpus_gate_checks_failing_axioms(corpus_ops):
    op = corpus_ops["ex1/hom-bialgebra"]
    defects, verdict, orc = op.run()
    fewer = dataclasses.replace(verdict, witnesses=verdict.witnesses[:1])
    assert op.gate((defects, fewer, orc))


def test_corpus_morphism_gate(corpus_ops):
    op = corpus_ops["z2_sign/morphism"]
    result = op.run()
    assert op.gate(result) == []
    assert op.gate([_flipped(result[0])] + result[1:])


def test_corpus_round_covers_every_committed_check():
    table = json.loads((workloads.corpus.DATA_DIR / "expected.json")
                       .read_text())
    checks = sum(len(e.get("checks", [])) for e in table["entries"])
    assert len(_ops("corpus")) == checks + len(table["morphisms"])


def test_check_gate():
    ops = _ops("check")
    k1 = next(op for op in ops if op.label.startswith("k1 "))
    plain = next(op for op in ops if not op.label.startswith("k1 "))
    for op in (k1, plain):
        result = op.run()
        assert op.gate(result) == []
        check_id, verdict = result[-1]
        assert op.gate(result[:-1] + [(check_id, _flipped(verdict))])
    assert k1.gate(k1.run()[:1])  # the K1 checks went missing


def _search_op(kind):
    return next(op for op in _ops("search") if op.label.startswith(kind + " "))


@pytest.mark.parametrize("kind", ["hom-algebra", "hom-leibniz"])
def test_search_gate(kind):
    op = _search_op(kind)
    assert op.candidates == workloads.SEARCH_PRIMES[kind] ** 8
    result = op.run()
    assert result.structures and op.gate(result) == []
    dropped = dataclasses.replace(result, structures=result.structures[1:])
    assert op.gate(dropped)
    swapped = dataclasses.replace(result, structures=result.structures[::-1])
    if len(result.structures) > 1:
        assert op.gate(swapped)


def test_search_gate_rejects_a_kernel_that_disagrees(monkeypatch):
    op = _search_op("hom-algebra")
    result = op.run()
    kern = workloads._kernels.get_kernel(result.kernel)
    real = kern.passes
    monkeypatch.setattr(kern, "passes", lambda *a: not real(*a))
    assert any("disagree" in p for p in op.gate(result))


def test_search_gate_rejects_a_failing_structure():
    op = _search_op("hom-algebra")
    result = op.run()
    kind, n = "hom-algebra", workloads.SEARCH_DIM
    total, _, alpha_off = workloads.pykern.layout(kind, n)
    flat = list(workloads.orbits.flat_of(result.structures[-1]))
    # the largest candidate with this twist, unless it passes
    flat[:alpha_off] = [2] * alpha_off
    bogus = search.structure_from_flat(kind, flat, n, 3)
    assert not axioms.run_check(kind, bogus).passed
    padded = dataclasses.replace(
        result, structures=result.structures[:-1] + (bogus,))
    assert op.gate(padded)


def test_classify_gate():
    op = _ops("classify")[0]
    result = op.run()
    assert op.gate(result) == []
    big = sorted(result, key=len)
    assert len(big) >= 2
    merged = [big[0] + big[1]] + big[2:]
    assert op.gate(merged)
    dropped = [orbit[1:] for orbit in result]
    assert op.gate(dropped)
    split = [[s] for orbit in result for s in orbit]
    if len(split) != len(result):
        assert op.gate(split)


@pytest.mark.parametrize("kind, count, classes", [
    ("hom-algebra", 352, 77), ("hom-leibniz", 508, 101),
    ("hom-prelie", 748, 147)])
def test_orbit_reference_counts(kind, count, classes):
    stream = enumerate_structures(SearchSpec(kind, 2, 2, cap=count)).structures
    assert len(stream) == count
    assert len(orbits.reference_partition(stream, 2)) == classes


def test_general_linear_group_orders():
    assert len(orbits.general_linear_group(2, 2)) == 6
    assert len(orbits.general_linear_group(2, 3)) == 48
    assert sum(len(c) for c in orbits.conjugacy_classes(
        orbits.general_linear_group(2, 3), 3)) == 48


def test_tail_percentile_leaves_ten_ops_beyond():
    assert run.tail_percentile(42) == 75
    assert run.tail_percentile(39) == 50
    assert run.tail_percentile(100) == 90
    assert run.percentile([3, 1, 2, 4], 50) == 2
    assert run.percentile([3, 1, 2, 4], 75) == 3


def test_tracer_restores_and_measures():
    from homstruct import linalg
    original = axioms.apply_bilinear
    op = _ops("check")[0]
    t = tracing.Tracer().install()
    try:
        assert axioms.apply_bilinear is not original
        t.span("op.check", op.run)
    finally:
        t.uninstall()
    assert axioms.apply_bilinear is original
    assert linalg.LinearMap.apply.__name__ == "apply"
    m = tracing.layer_metrics(t, 1.0)
    assert m["axioms.run_check.hom-algebra.s"] > 0
    assert m["axioms.tuples_evaluated"] > 0
    assert m["linalg.apply_bilinear.calls"] > 0
    assert m["fields.rational.mul_calls"] > 0
    assert m["constructions.calls"] >= 1
    assert 0 < m["axioms.run_suite.self_s"] < m["axioms.run_suite.s"]
    assert m["oracle.crosscheck.s"] == 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    t = tracing.Tracer()
    assert {m["name"] for m in spec["per_layer"]} == set(
        tracing.layer_metrics(t, 1.0))
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_speed_scales_follow_the_reference_loop():
    nominal = run.REF_NOMINAL_MS
    assert run.speed_scales([nominal / 2] * 5) == [2.0] * 4
    # the machine halves its speed after the fourth op
    refs = [nominal] * 5 + [2 * nominal] * 10
    scales = run.speed_scales(refs)
    assert len(scales) == len(refs) - 1
    assert scales[0] == 1.0 and scales[-1] == 0.5
