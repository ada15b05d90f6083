"""Random-vector cross-validation of basis-level verdicts.

Checkers decide identities on basis tuples, which is sufficient because
every side is multilinear. This module re-evaluates the same identities
on pseudo-random vector tuples (coordinates drawn from a fixed small
pool) and compares:

* a passing check must hold on every sampled tuple;
* every witness of a failing check must still fail when re-evaluated.

Disagreement would mean an identity is not actually multilinear as
implemented, so this guards the evaluator layer itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .axioms import run_check, suite_for
from .fields import PrimeField
from .linalg import Vector, basis_vector, tensors_equal

# canonical scalars of QQ; the order fixes the sample stream
RATIONAL_POOL = (-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-1, 3))


@dataclass(frozen=True)
class OracleResult:
    check: str
    agreed: bool
    samples: int
    seed: int
    mismatches: tuple = ()

    @property
    def status(self) -> str:
        return "agree" if self.agreed else "disagree"


def _pool(field):
    if isinstance(field, PrimeField):
        return range(field.p)  # rng.choice draws the same stream as from a tuple
    return RATIONAL_POOL


def random_vector(field, n, rng) -> Vector:
    pool = _pool(field)
    return Vector(field, tuple(rng.choice(pool) for _ in range(n)))


def oracle_crosscheck(structure, check_id: str, samples: int = 100,
                      seed: int = 0, counit_mode: str = "eq7",
                      strict_assoc: bool = False,
                      verdict=None) -> OracleResult:
    """Cross-check one checker's verdict on ``structure``.

    ``verdict`` may pass in an already-computed basis verdict; otherwise
    the check runs here.
    """
    if verdict is None:
        verdict = run_check(check_id, structure, counit_mode=counit_mode,
                            strict_assoc=strict_assoc)
    tests = suite_for(check_id, structure, counit_mode=counit_mode,
                      strict_assoc=strict_assoc)
    n, field = structure.dim, structure.field
    rng = random.Random(seed)
    mismatches = []

    failed_keys = {(w.axiom, w.where) for w in verdict.witnesses}
    for test in tests:
        if not test.fatal:
            continue
        if (test.axiom, test.where) in failed_keys:
            continue  # sampled agreement is only guaranteed for passing axioms
        for k in range(samples):
            vectors = [random_vector(field, n, rng)
                       for _ in range(test.arity)]
            lhs, rhs = test.evaluate(*vectors)
            if not tensors_equal(lhs, rhs):
                mismatches.append(
                    f"{test.where + '/' if test.where else ''}{test.axiom}: "
                    f"basis verdict holds but sample {k} fails")
                break

    by_key = {}
    for test in tests:
        by_key[(test.axiom, test.where)] = test
    basis = [basis_vector(field, n, i) for i in range(n)]
    for w in verdict.witnesses:
        test = by_key.get((w.axiom, w.where))
        if test is None:
            mismatches.append(f"witness for unknown axiom {w.axiom!r}")
            continue
        lhs, rhs = test.evaluate(*(basis[i] for i in w.at))
        if tensors_equal(lhs, rhs):
            mismatches.append(
                f"{w.where + '/' if w.where else ''}{w.axiom}: witness at "
                f"{w.at} no longer fails on re-evaluation")

    return OracleResult(check_id, not mismatches, samples, seed,
                        tuple(mismatches))
