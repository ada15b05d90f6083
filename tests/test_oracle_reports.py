import json
import random
import time
from fractions import Fraction

import pytest

import homstruct as hs
from homstruct.axioms import suite_for
from homstruct.corpus import _derive, load_expected, load_fixture
from homstruct.linalg import tensors_equal
from homstruct.oracle import (RATIONAL_POOL, SCALE, SCALED_POOL,
                              oracle_crosscheck, random_vector)
from homstruct.reports import Report, check_row

from conftest import F

# the oracle's rational pool as Fractions: its values and their order fix
# the sample stream that every committed oracle verdict was drawn from
FRACTION_POOL = tuple(Fraction(x) for x in (-2, -1, 0, 1, 2, 3)) + (
    Fraction(1, 2), Fraction(-1, 3))


class TestOracle:
    def test_passing_check_agrees_on_all_samples(self, hom3dim):
        res = oracle_crosscheck(hom3dim, "hom-algebra", samples=100, seed=0)
        assert res.agreed and res.status == "agree"
        assert res.samples == 100

    def test_failing_check_witnesses_refail(self, ex1):
        res = oracle_crosscheck(ex1, "infinitesimal", samples=50, seed=0)
        assert res.agreed  # disagreement would mean a broken evaluator

    def test_seed_change_does_not_alter_agreement(self, ex1, hom3dim):
        for s, check in ((hom3dim, "hom-algebra"), (ex1, "hom-bialgebra")):
            a = oracle_crosscheck(s, check, samples=60, seed=0)
            b = oracle_crosscheck(s, check, samples=60, seed=12345)
            assert a.agreed == b.agreed

    def test_oracle_detects_a_non_multilinear_break(self, hom3dim):
        # feed the oracle a verdict claiming a pass for a failing structure:
        # samples must catch the lie
        plain = hs.HomAlgebra(hom3dim.mu, hs.identity_map(F, 3))
        fake = hs.run_check("hom-algebra", hom3dim)  # a passing verdict
        res = oracle_crosscheck(plain, "hom-algebra", samples=100, seed=0,
                                verdict=fake)
        assert not res.agreed
        assert res.mismatches == (
            "hom-associativity: basis verdict holds but sample 0 fails",)

    def test_prime_field_sampling(self):
        gf = hs.PrimeField(5)
        mu = hs.ProductTensor(gf, (((1,),),))
        s = hs.HomAlgebra(mu, hs.identity_map(gf, 1))
        res = oracle_crosscheck(s, "hom-algebra", samples=30, seed=3)
        assert res.agreed

    def test_random_vector_uses_seeded_pool(self):
        rng = random.Random(0)
        v = random_vector(F, 4, rng)
        rng2 = random.Random(0)
        w = random_vector(F, 4, rng2)
        assert v.coords == w.coords

    def test_prime_pool_is_not_materialized(self):
        # a dim-1 check over a large prime samples in time independent of p
        gf = hs.PrimeField(1000003)
        mu = hs.ProductTensor(gf, (((1,),),))
        s = hs.HomAlgebra(mu, hs.identity_map(gf, 1))
        start = time.perf_counter()
        res = oracle_crosscheck(s, "hom-algebra", samples=20, seed=0)
        assert time.perf_counter() - start < 1.0
        assert res.agreed

    @pytest.mark.parametrize("p", [3, 7])
    def test_prime_samples_match_a_tuple_pool(self, p):
        rng, ref = random.Random(p), random.Random(p)
        pool = tuple(range(p))
        for _ in range(20):
            v = random_vector(hs.PrimeField(p), 4, rng)
            assert v.coords == tuple(ref.choice(pool) for _ in range(4))

    def test_rational_pool_holds_the_fraction_pool_values(self):
        assert len(RATIONAL_POOL) == len(FRACTION_POOL)
        for got, want in zip(RATIONAL_POOL, FRACTION_POOL):
            assert got == want and hash(got) == hash(want)
            assert str(got) == str(want)
            assert type(got) is (int if want.denominator == 1 else Fraction)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rational_samples_match_the_fraction_pool(self, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 4, 5) * 4:
            v = random_vector(F, n, rng)
            assert v.coords == tuple(ref.choice(FRACTION_POOL)
                                     for _ in range(n))

    def test_composite_checks_supported(self, ex2):
        res = oracle_crosscheck(ex2, "2-hom-assoc-bialgebra", samples=25,
                                seed=0)
        assert res.agreed

    def test_negative_sample_count_rejected(self, hom3dim):
        with pytest.raises(ValueError, match="non-negative"):
            oracle_crosscheck(hom3dim, "hom-algebra", samples=-1)

    def test_axioms_past_a_truncated_verdict_are_not_sampled(self):
        # every one of the 16 multiplicativity pairs fails, so the witness
        # cap stops the basis check before it reaches hom-associativity
        rng, n = random.Random(3), 4
        mu = hs.ProductTensor(F, tuple(
            tuple(tuple(rng.randint(-2, 2) for _ in range(n))
                  for _ in range(n)) for _ in range(n)))
        alpha = hs.LinearMap(F, tuple(
            tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n)))
        s = hs.HomAlgebra(mu, alpha)
        verdict = hs.run_check("hom-algebra", s)
        assert verdict.truncated and verdict.checked == ("multiplicativity",)
        res = oracle_crosscheck(s, "hom-algebra", samples=100, seed=0,
                                verdict=verdict)
        assert res.agreed, res.mismatches


def _rational_corpus_checks():
    """(structure, check id, counit mode) for every corpus check over QQ."""
    resolved, rows = {}, []
    for entry in load_expected()["entries"]:
        s = (load_fixture(entry["fixture"]) if "fixture" in entry
             else _derive(entry["derive"], resolved))
        resolved[entry["name"]] = s
        if not isinstance(s.field, hs.PrimeField):
            rows.extend((s, spec["check"], spec.get("counit-mode", "eq7"))
                        for spec in entry.get("checks", []))
    return rows


@pytest.mark.parametrize("seed", [0, 1])
def test_scaled_draws_decide_every_sample_as_unscaled(seed):
    """The oracle samples RATIONAL_POOL draws times SCALE. Each sampled
    identity is multilinear, so a scaled draw must pass or fail exactly as
    the unscaled Fraction draw does; this keeps the unscaled path run."""
    rows = _rational_corpus_checks()
    assert rows
    fraction_draws = 0
    for s, check_id, counit_mode in rows:
        unscaled, scaled = random.Random(seed), random.Random(seed)
        for test in suite_for(check_id, s, counit_mode=counit_mode):
            if not test.fatal:
                continue
            for k in range(3):
                xs = [random_vector(F, s.dim, unscaled)
                      for _ in range(test.arity)]
                ys = [hs.Vector(F, tuple(scaled.choice(SCALED_POOL)
                                         for _ in range(s.dim)))
                      for _ in range(test.arity)]
                for x, y in zip(xs, ys):
                    assert y.coords == tuple(SCALE * c for c in x.coords)
                fraction_draws += any(type(c) is Fraction
                                      for x in xs for c in x.coords)
                assert (tensors_equal(*test.evaluate(*xs))
                        == tensors_equal(*test.evaluate(*ys))), \
                    (check_id, test.where, test.axiom, k)
    assert fraction_draws


class TestReports:
    def test_machine_format_round_trips(self, ex1):
        verdict = hs.run_check("hom-bialgebra", ex1)
        oracle = oracle_crosscheck(ex1, "hom-bialgebra", samples=10, seed=0,
                                   verdict=verdict)
        basis = [f"e{i+1}" for i in range(2)]
        report = Report("ex1", "hom-bialgebra",
                        [check_row("hom-bialgebra", verdict, F, basis,
                                   oracle)])
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()

    def test_human_rendering_lists_every_failing_axiom(self, ex1):
        verdict = hs.run_check("hom-bialgebra", ex1)
        basis = ["e1", "e2"]
        report = Report("ex1", "hom-bialgebra",
                        [check_row("hom-bialgebra", verdict, F, basis)])
        text = report.render_human()
        for axiom in verdict.failing_axioms():
            assert axiom in text
        assert "FAIL" in text

    def test_pass_report(self, hom3dim):
        verdict = hs.run_check("hom-algebra", hom3dim)
        report = Report("hom3dim", "hom-algebra",
                        [check_row("hom-algebra", verdict, F,
                                   ["e1", "e2", "e3"])])
        assert report.passed
        assert "PASS" in report.render_human()

    def test_witness_rows_carry_exact_scalars(self, ex1):
        verdict = hs.run_check("infinitesimal", ex1)
        row = check_row("infinitesimal", verdict, F, ["e1", "e2"])
        w = next(x for x in row["witnesses"] if x["axiom"] == "infinitesimal")
        assert w["basis"] == ["e1", "e1"]
        assert w["lhs"] == {"tensor2": [["1", "0"], ["0", "0"]]}
        assert w["rhs"] == {"tensor2": [["0", "0"], ["0", "1"]]}
