"""The whole-basis evaluator against the per-tuple loop it replaced.

``reference_run_suite`` is that loop, kept here as the reference: it
calls each identity once per basis tuple, on plain basis vectors, and
compares the two sides with ``tensors_equal``. ``run_suite`` calls each
identity once, on batches, and must return the same ``Verdict`` field
for field: witness tuples and both sides, ``checked``, ``info`` and
``truncated``.
"""

import dataclasses
import itertools

import pytest

from homstruct import axioms, constructions, corpus, documents
from homstruct.axioms import (DEFAULT_WITNESS_CAP, InfoNote, Verdict, Witness,
                              check_morphism, run_check, run_suite, suite_for)
from homstruct.linalg import LinearMap, Vector, basis_vector, tensors_equal
from homstruct.structures import HomAlgebra

CAPS = (1, 4, 16, 10 ** 6)


def reference_run_suite(structure_dim, field, tests,
                        witness_cap=DEFAULT_WITNESS_CAP):
    """Evaluate every test on each basis tuple in turn."""
    witnesses = []
    checked = []
    info = []
    truncated = False
    basis = [basis_vector(field, structure_dim, i) for i in range(structure_dim)]
    for test in tests:
        if test.key not in checked:
            checked.append(test.key)
        local = []
        for at in itertools.product(range(structure_dim), repeat=test.arity):
            lhs, rhs = test.evaluate(*(basis[i] for i in at))
            if not tensors_equal(lhs, rhs):
                local.append(Witness(test.axiom, at, lhs, rhs, test.where))
                if test.fatal and len(witnesses) + len(local) >= witness_cap:
                    truncated = True
                    break
        if test.fatal:
            witnesses.extend(local)
            if truncated:
                break
        else:
            info.append(InfoNote(test.key, not local, tuple(local)))
    return Verdict(tuple(witnesses), tuple(checked), tuple(info), truncated)


@pytest.fixture
def per_tuple(monkeypatch):
    """``per_tuple(fn, ...)`` calls ``fn`` with ``axioms.run_suite`` replaced
    by the reference loop."""
    def call(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(axioms, "run_suite", reference_run_suite)
            return fn(*args, **kwargs)
    return call


TABLE = corpus.load_expected()


@pytest.fixture(scope="module")
def resolved():
    out = {}
    for entry in TABLE["entries"]:
        out[entry["name"]] = (corpus.load_fixture(entry["fixture"])
                              if "fixture" in entry
                              else corpus._derive(entry["derive"], out))
    return out


CORPUS_CHECKS = [(entry["name"], spec["check"], spec.get("counit-mode", "eq7"))
                 for entry in TABLE["entries"]
                 for spec in entry.get("checks", [])]
FAILING_CHECKS = [(entry["name"], spec["check"], spec.get("counit-mode", "eq7"))
                  for entry in TABLE["entries"]
                  for spec in entry.get("checks", [])
                  if spec["status"] == "fail"]


def _ids(cases):
    return [f"{name}/{check_id}/{mode}" for name, check_id, mode in cases]


def _same(batched, reference):
    assert batched.witnesses == reference.witnesses
    assert batched.checked == reference.checked
    assert batched.info == reference.info
    assert batched.truncated == reference.truncated
    # a Vector equals one of another class with equal fields; the sides
    # must also be the same plain classes
    for got, want in zip(batched.witnesses, reference.witnesses):
        assert (type(got.lhs), type(got.rhs)) == (type(want.lhs),
                                                  type(want.rhs))


@pytest.mark.parametrize("name, check_id, mode", CORPUS_CHECKS,
                         ids=_ids(CORPUS_CHECKS))
def test_every_corpus_check(resolved, per_tuple, name, check_id, mode):
    s = resolved[name]
    _same(run_check(check_id, s, counit_mode=mode),
          per_tuple(run_check, check_id, s, counit_mode=mode))


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name, check_id, mode", FAILING_CHECKS,
                         ids=_ids(FAILING_CHECKS))
def test_failing_corpus_checks_at_each_cap(resolved, per_tuple, name,
                                           check_id, mode, cap):
    s = resolved[name]
    got = run_check(check_id, s, counit_mode=mode, witness_cap=cap)
    _same(got, per_tuple(run_check, check_id, s, counit_mode=mode,
                         witness_cap=cap))
    assert not got.passed


def _morphism_pairs():
    for m in TABLE["morphisms"]:
        yield m["name"], m["file"], m["source"], m["target"]
        if "twisted-source" in m:
            yield (m["name"] + "-twisted", m["file"], m["twisted-source"],
                   m["twisted-target"])


MORPHISMS = list(_morphism_pairs())


@pytest.mark.parametrize("cap", (1, DEFAULT_WITNESS_CAP))
@pytest.mark.parametrize("label, file, source, target", MORPHISMS,
                         ids=[m[0] for m in MORPHISMS])
def test_every_corpus_morphism(resolved, per_tuple, label, file, source,
                               target, cap):
    f = documents.document_to_morphism(
        documents.load_path(corpus.DATA_DIR / file))[0]
    src, dst = resolved[source], resolved[target]
    _same(check_morphism(f, src, dst, cap),
          per_tuple(check_morphism, f, src, dst, cap))


def test_broken_morphism_fails_alike(resolved, per_tuple):
    # the zero map breaks the unit and every counit; the identity twisted
    # by a sign breaks the products
    m = TABLE["morphisms"][0]
    src, dst = resolved[m["source"]], resolved[m["target"]]
    f = documents.document_to_morphism(
        documents.load_path(corpus.DATA_DIR / m["file"]))[0]
    field = f.field
    zero = LinearMap(field, tuple((field.zero,) * f.source_dim
                                  for _ in range(f.target_dim)))
    for g in (zero, LinearMap(field, tuple(tuple(field.reduce(2 * x)
                                                 for x in row)
                                           for row in f.rows))):
        for cap in CAPS:
            got = check_morphism(g, src, dst, cap)
            assert not got.passed
            _same(got, per_tuple(check_morphism, g, src, dst, cap))


@pytest.mark.parametrize("rows, source, target", [
    ([[1], [0], [0]], "dim1", "kx3"), ([[1], [1], [0]], "dim1", "kx3"),
    ([[0], [2], [1]], "dim1", "kx3"), ([[1, 0, 0]], "kx3", "dim1"),
    ([[1, 1, 0]], "kx3", "dim1"),
], ids=["unit-in", "off-unit", "no-unit", "onto-unit", "onto-off-unit"])
def test_morphisms_between_dimensions(resolved, per_tuple, rows, source,
                                      target):
    # the batches run along the source basis, the values live in the target
    src, dst = resolved[source], resolved[target]
    f = LinearMap(src.field, rows)
    for cap in (1, 10 ** 6):
        _same(check_morphism(f, src, dst, cap),
              per_tuple(check_morphism, f, src, dst, cap))


# ---------------------------------------------------------------------------
# the shapes the benchmark's check workload builds: tensor products at dims
# 4-8, and K1 extensions of the unital untwisted ones


def _algebra_pools(resolved):
    pools = {}
    for entry in TABLE["entries"]:
        a = resolved[entry["name"]]
        passes = any(c["check"] == "hom-algebra" and c["status"] == "pass"
                     for c in entry.get("checks", []))
        if isinstance(a, HomAlgebra) and passes:
            unital = a.unit is not None and a.alpha.is_identity()
            pools.setdefault((a.dim, unital), []).append(a)
    return pools


@pytest.mark.parametrize("dim_a, dim_b, k1", [
    (2, 3, False), (3, 2, False), (2, 2, True), (2, 4, False), (2, 3, True),
])
def test_check_workload_shapes(resolved, per_tuple, dim_a, dim_b, k1):
    pools = _algebra_pools(resolved)
    firsts = pools[(dim_a, k1)]
    seconds = pools[(dim_b, True)] + ([] if k1 else
                                      pools.get((dim_b, False), []))
    for a in firsts:
        for b in seconds:
            product = constructions.tensor_product(a, b)
            runs = [("hom-algebra", product)]
            if k1:
                ext = constructions.kaplansky_k1(product)
                runs += [("hom-bialgebra", ext), ("infinitesimal", ext)]
            for check_id, s in runs:
                _same(run_check(check_id, s),
                      per_tuple(run_check, check_id, s))


def _perturbed(s, section):
    """``s`` with the last row, or coordinate, of one section raised by one:
    its identities stop holding at many basis tuples."""
    value, red = getattr(s, section), s.field.reduce
    if isinstance(value, Vector):
        new = Vector(s.field, value.coords[:-1] + (red(value.coords[-1] + 1),))
    else:
        rows = [list(r) for r in value.rows]
        rows[-1] = [red(x + 1) for x in rows[-1]]
        new = LinearMap(s.field, rows)
    return dataclasses.replace(s, **{section: new})


@pytest.mark.parametrize("cap", CAPS)
def test_failing_products_and_extensions_at_each_cap(resolved, per_tuple,
                                                     cap):
    pools = _algebra_pools(resolved)
    product = constructions.tensor_product(pools[(2, True)][0],
                                           pools[(3, True)][0])
    ext = constructions.kaplansky_k1(product)
    for check_id, s, section in (("hom-algebra", product, "alpha"),
                                 ("hom-algebra", product, "unit"),
                                 ("hom-bialgebra", ext, "alpha"),
                                 ("hom-bialgebra", ext, "counit"),
                                 ("infinitesimal", ext, "alpha")):
        s = _perturbed(s, section)
        got = run_check(check_id, s, witness_cap=cap)
        assert not got.passed
        assert got.truncated == (len(got.witnesses) == cap)
        _same(got, per_tuple(run_check, check_id, s, witness_cap=cap))


# ---------------------------------------------------------------------------
# one evaluation per identity


def _counted(tests, calls):
    def counting(i, evaluate):
        def run(*args):
            calls[i] += 1
            return evaluate(*args)
        return run
    return [dataclasses.replace(t, evaluate=counting(i, t.evaluate))
            for i, t in enumerate(tests)]


@pytest.mark.parametrize("name, check_id", [
    ("k1-kx3", "infinitesimal"), ("k2-z2group", "hom-bialgebra"),
    ("leibniz2dim", "hom-leibniz"), ("ut2", "differential"),
])
def test_each_identity_is_evaluated_once(resolved, name, check_id):
    s = resolved[name]
    tests = suite_for(check_id, s)
    calls = [0] * len(tests)
    verdict = run_suite(s.dim, s.field, _counted(tests, calls), 10 ** 6)
    assert calls == [1] * len(tests)
    assert verdict == run_check(check_id, s, witness_cap=10 ** 6)


def test_evaluation_stops_at_the_test_that_hits_the_cap(resolved):
    s = resolved["ex1"]
    tests = suite_for("hom-bialgebra", s)
    calls = [0] * len(tests)
    verdict = run_suite(s.dim, s.field, _counted(tests, calls), 1)
    assert verdict.truncated
    stop = next(i for i, t in enumerate(tests)
                if t.axiom == verdict.witnesses[0].axiom)
    assert calls == [1] * (stop + 1) + [0] * (len(tests) - stop - 1)


@pytest.mark.parametrize("cap", (0, -5))
def test_cap_below_one_is_refused(resolved, cap):
    s = resolved["ex1"]
    with pytest.raises(ValueError, match="witness cap"):
        run_suite(s.dim, s.field, suite_for("hom-bialgebra", s), cap)
    with pytest.raises(ValueError, match="witness cap"):
        run_check("hom-bialgebra", s, witness_cap=cap)
    m = TABLE["morphisms"][0]
    f = documents.document_to_morphism(
        documents.load_path(corpus.DATA_DIR / m["file"]))[0]
    with pytest.raises(ValueError, match="witness cap"):
        check_morphism(f, resolved[m["source"]], resolved[m["target"]], cap)
