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
sample's. The draws are the values of the same ``rng.choice`` calls in
the same order as one sample at a time: sample, then argument, then
coordinate. ``choice`` from a pool of size s keeps the top
s.bit_length() bits of one 32-bit Mersenne Twister word and rejects
values >= s, so the accepted draws are a filter over the word stream
however it is chunked: for a pool of fewer than 256 values a block's
words come from one ``rng.getrandbits`` call and are filtered by their
top bytes; a larger pool keeps one ``choice`` per draw.

An identity stops at its first failing sample, and the next identity
draws on from where a sample-at-a-time loop would stand. The generator
is local to the call, so it may draw ahead: drawn values wait in a
pending buffer, and on a mismatch at sample j of a block the draws of
the samples after j go back to the front of that buffer. What is kept
is the draw stream, not the generator's own state, which is never
restored and ends wherever the last refill left it. The fixed block
bounds memory whatever the sample count. The witnesses are re-evaluated
the same way, every witness of one axiom in one call, its a-th argument
the batch of the witnesses' a-th basis vectors along one shared axis.

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
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _top_bytes(size):
    """The ``bytes.translate`` table and delete bytes that turn the top
    bytes of 32-bit words into what ``rng.choice`` draws from a pool of
    ``size`` < 256 values: the index given by the top
    ``size.bit_length()`` bits, or nothing where that index is >= size."""
    shift = 8 - size.bit_length()
    return (bytes(b >> shift for b in range(256)),
            bytes(b for b in range(256) if b >> shift >= size))


class _Draws:
    """The values of successive ``rng.choice(pool)`` calls, drawn ahead:
    what is drawn and not yet taken waits in ``pending``, in stream order.
    A pool of fewer than 256 values is drawn from the words of one
    ``getrandbits`` call per refill, a larger one by ``choice`` itself."""

    def __init__(self, rng, pool):
        self.rng, self.pool, self.pending = rng, pool, []

    def take(self, count):
        """The next ``count`` values of the stream."""
        while len(self.pending) < count:
            self.pending += self._refill(count - len(self.pending))
        taken, self.pending = self.pending[:count], self.pending[count:]
        return taken

    def give_back(self, values):
        """Put ``values``, the last ones taken, back at the stream's front."""
        self.pending[:0] = values

    def _refill(self, count):
        rng, pool = self.rng, self.pool
        size = len(pool)
        if size >= 256:
            return [rng.choice(pool) for _ in range(count)]
        table, delete = _top_bytes(size)
        # the words that give ``count`` draws on average, plus one
        words = (count << size.bit_length()) // size + 1
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        return list(map(pool.__getitem__, top.translate(table, delete)))


def _failing(test, field, n, size, args):
    """The positions k, in increasing order, where ``test`` fails on its
    k-th arguments, ``args[a]`` listing the ``size`` coordinate tuples of
    argument a: every position in one call, each argument the batch of
    its tuples along one shared axis."""
    lhs, rhs = test.evaluate(*(_batch(field, (n,), (0,), size, entries)
                               for entries in args))
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
    draws = _Draws(random.Random(seed), pool)
    failed = []

    # sampled agreement is only guaranteed for axioms found to hold; a
    # truncated verdict leaves the axioms after its cap unchecked
    holding = set(verdict.checked) - {w.key for w in verdict.witnesses}
    for test in tests:
        if not test.fatal or test.key not in holding:
            continue
        arity = test.arity
        width = arity * n
        for start in range(0, samples, BLOCK):
            size = min(BLOCK, samples - start)
            coords = draws.take(size * width)
            vectors = (list(zip(*[iter(coords)] * n)) if n
                       else [()] * (size * arity))
            j = next(_failing(test, field, n, size,
                              [vectors[a::arity] for a in range(arity)]),
                     None)
            if j is not None:
                # the next identity draws on from sample j + 1
                draws.give_back(coords[(j + 1) * width:])
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
            test = by_key[key]
            still_failing.update(idx[k] for k in _failing(
                test, field, n, len(idx),
                [[basis[witnesses[i].at[a]] for i in idx]
                 for a in range(test.arity)]))
    for i, w in enumerate(witnesses):
        if w.key not in by_key:
            failed.append(f"witness for unknown axiom {w.axiom!r}")
        elif i not in still_failing:
            failed.append(
                f"{w.key}: witness at {w.at} no longer fails on "
                "re-evaluation")

    return OracleResult(check_id, not failed, samples, seed, tuple(failed))
