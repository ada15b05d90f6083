"""The batched oracle against the per-sample loop it replaced.

``reference_oracle_crosscheck`` is that loop, kept here as the
reference: it draws one sample at a time, calls each identity on plain
vectors and compares the two sides with ``tensors_equal``, stopping an
identity at its first failing sample. ``oracle_crosscheck`` evaluates a
block of samples in one call, on a shared sample axis, and must return
the same ``OracleResult`` field for field, and draw on, identity after
identity, from where the loop stands.
"""

import dataclasses
import random

import pytest

from homstruct import corpus, documents, oracle
from homstruct.axioms import AxiomTest, Verdict, Witness, run_check, suite_for
from homstruct.fields import PrimeField, RationalField, _is_prime
from homstruct.linalg import (Batch, LinearMap, ProductTensor, Vector,
                              apply_bilinear, basis_vector, tensors_equal)
from homstruct.oracle import (BLOCK, SCALED_POOL, OracleResult,
                              oracle_crosscheck)
from homstruct.structures import HomAlgebra


def reference_oracle_crosscheck(structure, check_id, samples=100, seed=0,
                                counit_mode="eq7", strict_assoc=False,
                                verdict=None):
    """Evaluate every sampled identity on one sample at a time. The suite
    comes from ``oracle.suite_for``, so a test that replaces it there
    replaces it for both."""
    if verdict is None:
        verdict = run_check(check_id, structure, counit_mode=counit_mode,
                            strict_assoc=strict_assoc)
    tests = oracle.suite_for(check_id, structure, counit_mode=counit_mode,
                             strict_assoc=strict_assoc)
    n, field = structure.dim, structure.field
    pool = range(field.p) if isinstance(field, PrimeField) else SCALED_POOL
    rng = random.Random(seed)
    mismatches = []
    holding = set(verdict.checked) - {w.key for w in verdict.witnesses}
    for test in tests:
        if not test.fatal or test.key not in holding:
            continue
        for k in range(samples):
            vectors = [Vector(field, tuple(rng.choice(pool)
                                           for _ in range(n)))
                       for _ in range(test.arity)]
            lhs, rhs = test.evaluate(*vectors)
            if not tensors_equal(lhs, rhs):
                mismatches.append(
                    f"{test.key}: basis verdict holds but sample {k} fails")
                break
    by_key = {test.key: test for test in tests}
    basis = [basis_vector(field, n, i) for i in range(n)]
    for w in verdict.witnesses:
        test = by_key.get(w.key)
        if test is None:
            mismatches.append(f"witness for unknown axiom {w.axiom!r}")
            continue
        lhs, rhs = test.evaluate(*(basis[i] for i in w.at))
        if tensors_equal(lhs, rhs):
            mismatches.append(
                f"{w.key}: witness at {w.at} no longer fails on "
                "re-evaluation")
    return OracleResult(check_id, not mismatches, samples, seed,
                        tuple(mismatches))


TABLE = corpus.load_expected()
# corpus structures with integer scalars, read mod p: over GF(2) and GF(5)
# the pools reject 1/2 and 3/8 of the words, and GF(257) draws by one
# rng.choice per draw
OVER_PRIMES = [(name, check_id, p)
               for name, check_id in [("mat2", "hom-algebra"),
                                      ("ut2-dialg", "hom-dialgebra"),
                                      ("ex1", "hom-bialgebra"),
                                      ("k1-mat2", "hom-bialgebra")]
               for p in (2, 5, 257)]


def _over_prime(s, p):
    """``s``, whose scalars are integers, with its scalars read mod p."""
    doc = documents.structure_to_document(s)
    doc["field"] = f"gf:{p}"
    return documents.document_to_structure(doc)


@pytest.fixture(scope="module")
def resolved():
    out = {}
    for entry in TABLE["entries"]:
        out[entry["name"]] = (corpus.load_fixture(entry["fixture"])
                              if "fixture" in entry
                              else corpus._derive(entry["derive"], out))
    for name, _, p in OVER_PRIMES:
        out[f"{name}@gf{p}"] = _over_prime(out[name], p)
    return out


CORPUS_CHECKS = [(entry["name"], spec["check"], spec.get("counit-mode", "eq7"))
                 for entry in TABLE["entries"]
                 for spec in entry.get("checks", [])]
IDS = [f"{name}/{check_id}/{mode}" for name, check_id, mode in CORPUS_CHECKS]
PRIME_CHECKS = [(f"{name}@gf{p}", check_id, "eq7")
                for name, check_id, p in OVER_PRIMES]
PRIME_IDS = [f"{name}/{check_id}/{mode}"
             for name, check_id, mode in PRIME_CHECKS]


def _same(s, check_id, mode, samples, seed):
    verdict = run_check(check_id, s, counit_mode=mode)
    got = oracle_crosscheck(s, check_id, samples=samples, seed=seed,
                            counit_mode=mode, verdict=verdict)
    want = reference_oracle_crosscheck(s, check_id, samples=samples,
                                       seed=seed, counit_mode=mode,
                                       verdict=verdict)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    return got


@pytest.mark.parametrize("samples", [20, BLOCK])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name, check_id, mode", CORPUS_CHECKS + PRIME_CHECKS,
                         ids=IDS + PRIME_IDS)
def test_every_corpus_check(resolved, name, check_id, mode, seed, samples):
    assert _same(resolved[name], check_id, mode, samples, seed).agreed


@pytest.mark.parametrize("samples", [0, 1, BLOCK - 1, BLOCK + 1,
                                     2 * BLOCK + BLOCK // 2])
@pytest.mark.parametrize("name, check_id", [
    ("hom3dim_ab", "hom-algebra"), ("ex1", "hom-bialgebra"),
    ("ex2", "2-hom-assoc-bialgebra")])
def test_block_boundaries(resolved, name, check_id, samples):
    _same(resolved[name], check_id, "eq7", samples, 3)


def _swapped_suite(monkeypatch):
    """Replace the oracle's suites by ones whose identities of arity two
    or more take their first two arguments swapped on the left side: on a
    noncommutative structure these fail at some samples."""
    def swapped(*args, **kwargs):
        def swap(evaluate):
            def run(x, y, *rest):
                return evaluate(y, x, *rest)[0], evaluate(x, y, *rest)[1]
            return run
        return [dataclasses.replace(t, evaluate=swap(t.evaluate))
                if t.arity >= 2 else t
                for t in suite_for(*args, **kwargs)]
    monkeypatch.setattr(oracle, "suite_for", swapped)


@pytest.mark.parametrize("name, check_id, mode", CORPUS_CHECKS + PRIME_CHECKS,
                         ids=IDS + PRIME_IDS)
def test_mismatch_indices_and_rng_position(resolved, monkeypatch, name,
                                           check_id, mode):
    # a mismatch stops an identity early; the next identity draws on from
    # where the stream stands, so its mismatch index checks that position
    _swapped_suite(monkeypatch)
    got = _same(resolved[name], check_id, mode, BLOCK + BLOCK // 2, 7)
    if "@gf" in name and not name.startswith("ex1@"):
        assert not got.agreed  # so the prime pools reach the give-back


def test_swapped_suite_mismatches_at_several_identities(resolved,
                                                        monkeypatch):
    _swapped_suite(monkeypatch)
    got = _same(resolved["trivdialg3dim"], "hom-dialgebra", "eq7", BLOCK, 7)
    assert len(got.mismatches) >= 2
    assert any(m.endswith("sample 1 fails") for m in got.mismatches)


def _flags(v, value):
    """``v`` with each vector replaced by e_1 where its first coordinate is
    ``value`` and by zero elsewhere: a map that is not linear."""
    def flag(c):
        return (int(c[0] == value),) + (0,) * (len(c) - 1)
    if type(v) is Batch:
        return Batch(v.field, v.shape, v.axes, v.n,
                     [flag(e) for e in v.entries])
    return Vector(v.field, flag(v.coords))


def _rare_suite(arities, field=RationalField(), value=SCALED_POOL[3]):
    """A dim-2 algebra and identities, one per arity, that fail only where
    every argument's first coordinate is ``value``: over QQ at one sample
    in ``8 ** arity`` on average."""
    first = ProductTensor(field, (((1, 0), (0, 0)), ((0, 0), (0, 0))))
    zero = Vector(field, (0, 0))

    def evaluate(*vectors):
        flags = [_flags(v, value) for v in vectors]
        lhs = flags[0]
        for f in flags[1:]:
            lhs = apply_bilinear(first, lhs, f)
        return lhs, zero

    s = HomAlgebra(first, LinearMap(field, ((1, 0), (0, 1))))
    return s, [AxiomTest(f"rare-{i}", arity, evaluate)
               for i, arity in enumerate(arities)]


@pytest.mark.parametrize("seed", range(6))
def test_rare_mismatches_deep_in_later_blocks(monkeypatch, seed):
    s, tests = _rare_suite((1, 3, 2, 3, 1, 2))
    monkeypatch.setattr(oracle, "suite_for", lambda *a, **k: tests)
    verdict = Verdict((), tuple(t.axiom for t in tests))
    samples = 10 * BLOCK
    got = oracle_crosscheck(s, "hom-algebra", samples=samples, seed=seed,
                            verdict=verdict)
    want = reference_oracle_crosscheck(s, "hom-algebra", samples=samples,
                                       seed=seed, verdict=verdict)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    indices = [int(m.split("sample ")[1].split()[0]) for m in got.mismatches]
    assert len(indices) >= 5 and max(indices) >= BLOCK


@pytest.mark.parametrize("p, arities", [(2, (1, 3, 2, 3, 1, 2)),
                                         (5, (1, 3, 2, 3, 1, 2)),
                                         (257, (1,) * 6)])
@pytest.mark.parametrize("seed", range(3))
def test_rare_mismatches_over_prime_fields(monkeypatch, p, arities, seed):
    s, tests = _rare_suite(arities, PrimeField(p), p - 1)
    monkeypatch.setattr(oracle, "suite_for", lambda *a, **k: tests)
    verdict = Verdict((), tuple(t.axiom for t in tests))
    got = oracle_crosscheck(s, "hom-algebra", samples=10 * BLOCK, seed=seed,
                            verdict=verdict)
    want = reference_oracle_crosscheck(s, "hom-algebra", samples=10 * BLOCK,
                                       seed=seed, verdict=verdict)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert len(got.mismatches) >= 5


@pytest.mark.parametrize("field", [RationalField(), PrimeField(2),
                                   PrimeField(7)], ids=str)
@pytest.mark.parametrize("samples", [BLOCK, 2 * BLOCK + 3])
def test_false_passing_verdicts(field, samples):
    # random hom-algebras, with a verdict claiming every axiom holds: the
    # samples must catch each false claim at the same sample
    rng = random.Random(5)
    for dim in (0, 1, 2, 3):
        for _ in range(3):
            mu = ProductTensor(field, tuple(
                tuple(tuple(field.reduce(rng.randint(-1, 2))
                            for _ in range(dim)) for _ in range(dim))
                for _ in range(dim)))
            alpha = LinearMap(field, tuple(
                tuple(field.reduce(rng.randint(-1, 1)) for _ in range(dim))
                for _ in range(dim)))
            s = HomAlgebra(mu, alpha)
            keys = tuple(t.key for t in suite_for("hom-algebra", s))
            verdict = Verdict((), keys)
            for seed in (0, 1):
                got = oracle_crosscheck(s, "hom-algebra", samples=samples,
                                        seed=seed, verdict=verdict)
                want = reference_oracle_crosscheck(
                    s, "hom-algebra", samples=samples, seed=seed,
                    verdict=verdict)
                assert dataclasses.astuple(got) == dataclasses.astuple(want)


def test_blocks_bound_the_batches(resolved, monkeypatch):
    """However many samples are asked for, no batch handed to an identity
    holds more than ``BLOCK`` entries."""
    sizes = []

    def bounded(*args, **kwargs):
        def check(evaluate):
            def run(*vectors):
                for v in vectors:
                    if type(v) is Batch:
                        sizes.append(len(v.entries))
                        assert v.axes == (0,) and v.n == len(v.entries)
                return evaluate(*vectors)
            return run
        return [dataclasses.replace(t, evaluate=check(t.evaluate))
                for t in suite_for(*args, **kwargs)]

    monkeypatch.setattr(oracle, "suite_for", bounded)
    samples = 10 * BLOCK
    res = oracle_crosscheck(resolved["ex1"], "hom-bialgebra",
                            samples=samples, seed=0)
    assert res.agreed
    assert sizes and max(sizes) <= BLOCK
    assert sum(sizes) >= samples


def test_witness_replay_reports_in_witness_order():
    """A fabricated verdict whose witnesses interleave two axioms: some
    still fail, some are stale and pass on re-evaluation, and one names
    an unknown axiom. The replay must report what the per-witness
    reference reports, in witness order."""
    field = PrimeField(3)
    s = HomAlgebra(ProductTensor(field, (((1, 0), (2, 0)), ((0, 1), (0, 1)))),
                   LinearMap(field, ((1, 0), (1, 1))))
    found = run_check("hom-algebra", s, witness_cap=100).witnesses
    # multiplicativity holds only at (1, 1), hom-associativity at (1, 1, 1)
    assert [w.at for w in found if w.axiom == "multiplicativity"] == [
        (0, 0), (0, 1), (1, 0)]
    assert len([w for w in found if w.axiom == "hom-associativity"]) == 7
    rows = [("hom-associativity", (0, 1, 1)), ("multiplicativity", (1, 1)),
            ("no-such-axiom", (0, 0)), ("multiplicativity", (0, 1)),
            ("hom-associativity", (1, 1, 1)), ("multiplicativity", (1, 0)),
            ("multiplicativity", (1, 1))]
    verdict = Verdict(tuple(Witness(axiom, at, None, None)
                            for axiom, at in rows),
                      ("multiplicativity", "hom-associativity"))
    got = oracle_crosscheck(s, "hom-algebra", samples=5, verdict=verdict)
    want = reference_oracle_crosscheck(s, "hom-algebra", samples=5,
                                       verdict=verdict)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    stale = "no longer fails on re-evaluation"
    assert got.mismatches == (
        f"multiplicativity: witness at (1, 1) {stale}",
        "witness for unknown axiom 'no-such-axiom'",
        f"hom-associativity: witness at (1, 1, 1) {stale}",
        f"multiplicativity: witness at (1, 1) {stale}")


# every pool the oracle draws from: the scaled rational pool and GF(p),
# drawn a block at a time below 256 values and one choice per draw above
DRAW_POOLS = ([SCALED_POOL] + [range(p) for p in range(256) if _is_prime(p)]
              + [range(p) for p in (257, 1000003, 4294967291, 4294967311)])
POOL_IDS = [f"pool{len(pool)}" for pool in DRAW_POOLS]
# the widest sample of the corpus: arity 3 at dimension 5
WIDTH = 3 * 5
MOST = BLOCK * WIDTH


def _choices(pool, seed, count):
    rng = random.Random(seed)
    return [rng.choice(pool) for _ in range(count)]


def _draws_equal_choices(pool, seed, counts):
    want = _choices(pool, seed, MOST + WIDTH)
    for count in counts:
        draws = oracle._Draws(random.Random(seed), pool)
        assert draws.take(count) == want[:count], count
        assert draws.take(WIDTH) == want[count:count + WIDTH], count


@pytest.mark.parametrize("pool", DRAW_POOLS, ids=POOL_IDS)
def test_block_draws_are_the_choice_stream(pool):
    """The draws equal ``rng.choice(pool)`` value for value, at counts
    from 1 to a whole block of the widest sample, and draw on from there.
    This pins how CPython's ``choice`` reads the Mersenne Twister words:
    a release that changes ``_randbelow`` fails here."""
    _draws_equal_choices(pool, 3, [*range(1, 2 * WIDTH + 1),
                                   *range(2 * WIDTH + 1, MOST, 37), MOST])


def test_rational_block_draws_at_every_count():
    _draws_equal_choices(SCALED_POOL, 4, range(1, MOST + 1))


@pytest.mark.parametrize("pool", [SCALED_POOL, range(2), range(5),
                                  range(257), range(4294967311)],
                         ids=["pool8", "pool2", "pool5", "pool257",
                              "pool4294967311"])
def test_draws_given_back_at_every_sample(pool):
    """A block whose identity fails at sample j gives back the draws of
    samples j + 1 on, and the next block starts with them."""
    want = _choices(pool, 9, 2 * MOST)
    for j in range(BLOCK):
        draws = oracle._Draws(random.Random(9), pool)
        block = draws.take(MOST)
        assert block == want[:MOST]
        draws.give_back(block[(j + 1) * WIDTH:])
        used = (j + 1) * WIDTH
        assert draws.take(MOST) == want[used:used + MOST], j
