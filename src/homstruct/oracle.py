"""Random-vector cross-validation of basis-level verdicts.

Checkers decide identities on basis tuples, which is sufficient because
every side is multilinear. This module re-evaluates the same identities
on pseudo-random vector tuples (coordinates drawn from a fixed small
pool) and compares:

* a passing check must hold on every sampled tuple;
* every witness of a failing check must still fail when re-evaluated.

Disagreement would mean an identity is not actually multilinear as
implemented, so this guards the evaluator layer itself.

Samples are evaluated in blocks of at most ``BLOCK``: each sampled
identity is called once per block, with its a-th argument the batch of
the block's a-th vectors along one sample axis shared by every argument
(a :class:`~homstruct.linalg.Batch` over the axis ``(0,)``), so sample
k's arguments are evaluated together and never paired with another
sample's. The draws are the same ``rng.choice`` calls in the same order
as one sample at a time: sample, then argument, then coordinate. An
identity stops at its first failing sample, and the rng must then stand
where a sample-at-a-time loop would leave it, since the next identity
draws on from there: the rng state is saved before each block and, on a
mismatch at sample j of the block, restored and advanced by the draws of
samples 0 to j only. The fixed block bounds memory whatever the sample
count. The witnesses are re-evaluated the same way, every witness of
one axiom in one call, its a-th argument the batch of the witnesses'
a-th basis vectors along one shared axis.

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
from .linalg import Vector, _batch, basis_batch, mismatches

# canonical scalars of QQ; the order fixes the sample stream
RATIONAL_POOL = (-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-1, 3))
# the oracle's rational draws: the pool times the lcm of its denominators
SCALE = math.lcm(*(Fraction(c).denominator for c in RATIONAL_POOL))
SCALED_POOL = tuple(int(c * SCALE) for c in RATIONAL_POOL)
# samples per call of an identity: the default sample count is one block
BLOCK = 100


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


def _failing(test, field, n, tuples):
    """The positions k, in increasing order, where ``test`` fails on
    ``tuples[k]``, one coordinate tuple per argument: every tuple in one
    call, the a-th argument the batch of the a-th vectors along one
    shared axis."""
    size = len(tuples)
    lhs, rhs = test.evaluate(*(
        _batch(field, (n,), (0,), size, [vectors[a] for vectors in tuples])
        for a in range(test.arity)))
    return (k for (k,), _, _ in mismatches(lhs, rhs, 1, size))


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
    failed = []

    # sampled agreement is only guaranteed for axioms found to hold; a
    # truncated verdict leaves the axioms after its cap unchecked
    holding = set(verdict.checked) - {w.key for w in verdict.witnesses}
    for test in tests:
        if not test.fatal or test.key not in holding:
            continue
        arity = test.arity
        for start in range(0, samples, BLOCK):
            size = min(BLOCK, samples - start)
            state = rng.getstate()
            draws = [[tuple([rng.choice(pool) for _ in range(n)])
                      for _ in range(arity)] for _ in range(size)]
            j = next(_failing(test, field, n, draws), None)
            if j is not None:
                rng.setstate(state)
                for _ in range((j + 1) * arity * n):
                    rng.choice(pool)
                failed.append(f"{test.key}: basis verdict holds but "
                              f"sample {start + j} fails")
                break

    # every witness of one axiom in one call, on a shared witness axis
    by_key = {test.key: test for test in tests}
    basis = basis_batch(field, n, 0).entries
    witnesses = verdict.witnesses
    positions = {}
    for i, w in enumerate(witnesses):
        positions.setdefault(w.key, []).append(i)
    still_failing = set()
    for key, idx in positions.items():
        if key in by_key:
            still_failing.update(idx[k] for k in _failing(
                by_key[key], field, n,
                [[basis[j] for j in witnesses[i].at] for i in idx]))
    for i, w in enumerate(witnesses):
        if w.key not in by_key:
            failed.append(f"witness for unknown axiom {w.axiom!r}")
        elif i not in still_failing:
            failed.append(
                f"{w.key}: witness at {w.at} no longer fails on "
                "re-evaluation")

    return OracleResult(check_id, not failed, samples, seed, tuple(failed))
