"""Random-vector cross-validation of basis-level verdicts.

Checkers decide identities on basis tuples, which is sufficient because
every side is multilinear. This module re-evaluates the same identities
on pseudo-random vector tuples (coordinates drawn from a fixed small
pool) and compares:

* a passing check must hold on every sampled tuple;
* every witness of a failing check must still fail when re-evaluated.

Disagreement would mean an identity is not actually multilinear as
implemented, so this guards the evaluator layer itself.

Over the rationals a sample is a pool draw scaled to integers: each
coordinate comes from ``RATIONAL_POOL`` by the same ``rng.choice`` call,
then is multiplied by ``SCALE``, the lcm of the pool's denominators.
Every sampled identity is multilinear, so scaling each argument by
``SCALE`` scales both sides by ``SCALE ** arity``: a sample passes or
fails exactly as its unscaled draw would, and the draws, and so the
sample indices in mismatch messages, are the same. The arithmetic stays
in native ints. Only axioms the basis checker ran and found to hold are
sampled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .axioms import run_check, suite_for
from .fields import PrimeField
from .linalg import Vector, basis_vector, tensors_equal

# canonical scalars of QQ; the order fixes the sample stream
RATIONAL_POOL = (-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-1, 3))
# the oracle's rational draws: the pool times the lcm of its denominators
SCALE = math.lcm(*(Fraction(c).denominator for c in RATIONAL_POOL))
SCALED_POOL = tuple(int(c * SCALE) for c in RATIONAL_POOL)


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


def _key(item):
    """The ``where/axiom`` key of an axiom test or a witness, as
    ``Verdict.checked`` lists it."""
    return f"{item.where}/{item.axiom}" if item.where else item.axiom


def oracle_crosscheck(structure, check_id: str, samples: int = 100,
                      seed: int = 0, counit_mode: str = "eq7",
                      strict_assoc: bool = False,
                      verdict=None) -> OracleResult:
    """Cross-check one checker's verdict on ``structure``.

    ``verdict`` may pass in an already-computed basis verdict; otherwise
    the check runs here.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if verdict is None:
        verdict = run_check(check_id, structure, counit_mode=counit_mode,
                            strict_assoc=strict_assoc)
    tests = suite_for(check_id, structure, counit_mode=counit_mode,
                      strict_assoc=strict_assoc)
    n, field = structure.dim, structure.field
    pool = _pool(field) if isinstance(field, PrimeField) else SCALED_POOL
    rng = random.Random(seed)
    mismatches = []

    # sampled agreement is only guaranteed for axioms found to hold; a
    # truncated verdict leaves the axioms after its cap unchecked
    holding = set(verdict.checked) - {_key(w) for w in verdict.witnesses}
    for test in tests:
        if not test.fatal or _key(test) not in holding:
            continue
        for k in range(samples):
            vectors = [Vector(field, tuple(rng.choice(pool)
                                           for _ in range(n)))
                       for _ in range(test.arity)]
            lhs, rhs = test.evaluate(*vectors)
            if not tensors_equal(lhs, rhs):
                mismatches.append(
                    f"{_key(test)}: basis verdict holds but sample {k} fails")
                break

    by_key = {_key(test): test for test in tests}
    basis = [basis_vector(field, n, i) for i in range(n)]
    for w in verdict.witnesses:
        test = by_key.get(_key(w))
        if test is None:
            mismatches.append(f"witness for unknown axiom {w.axiom!r}")
            continue
        lhs, rhs = test.evaluate(*(basis[i] for i in w.at))
        if tensors_equal(lhs, rhs):
            mismatches.append(
                f"{_key(w)}: witness at {w.at} no longer fails on "
                "re-evaluation")

    return OracleResult(check_id, not mismatches, samples, seed,
                        tuple(mismatches))
