"""Pure-Python search kernel.

Evaluates the mod-p axiom systems directly on flat structure-constant
arrays (independent of the exact-arithmetic checkers) and enumerates
candidate assignments in lexicographic order. The compiled kernel in
``_ckern`` visits every raw candidate; this one prunes, and both must
produce identical streams.

Flat layout of a candidate: the product tensors in kind order (each
n*n*n, entry (i, j, k) at ((i*n)+j)*n+k), then the twist matrix (n*n,
entry (row, col) at row*n+col; column j is the image of e_j).

Two contraction helpers cover every identity but multiplicativity:

* ``_ot(outer, inner, i, j, k, l)``: coordinate l of
  outer(inner(e_i, e_j), twist(e_k)) -- "combine first, twist the tail";
* ``_to(outer, inner, i, j, k, l)``: coordinate l of
  outer(twist(e_i), inner(e_j, e_k)) -- "twist the head, combine inside".

Each helper skips a read only when a factor of the skipped term is zero,
and reads the twist entry first, so that a pinned zero in the twist
spares the product reads behind it. A candidate's residual therefore
depends only on the slots the helpers read on a probe with every free
slot set to 1, so the walk checks each identity as soon as the last of
those slots is set (backtracking with exact pruning: Golomb & Baumert,
"Backtrack programming", J. ACM 12, 1965).
"""

import heapq
import itertools
import sys
from functools import lru_cache

NAME = "python"

KINDS = {
    "hom-algebra": 1,
    "hom-leibniz": 1,
    "hom-prelie": 1,
    "hom-dialgebra": 2,
    "hlsda": 2,
}


def layout(kind, n):
    """(total length, product offsets, twist offset) of the flat array."""
    products = KINDS[kind]
    offs = tuple(i * n ** 3 for i in range(products))
    alpha_off = products * n ** 3
    return alpha_off + n * n, offs, alpha_off


def _ot(v, n, al, outer, inner, i, j, k, l):
    acc = 0
    base = inner + (i * n + j) * n
    for b in range(n):
        bk = v[al + b * n + k]
        if bk == 0:
            continue
        for m in range(n):
            cm = v[base + m]
            if cm:
                acc += cm * bk * v[outer + (m * n + b) * n + l]
    return acc


def _to(v, n, al, outer, inner, i, j, k, l):
    acc = 0
    base = inner + (j * n + k) * n
    for a in range(n):
        ai = v[al + a * n + i]
        if ai == 0:
            continue
        row = outer + a * n * n
        for m in range(n):
            cm = v[base + m]
            if cm:
                acc += ai * cm * v[row + m * n + l]
    return acc


def _mult(v, n, al, mu, i, j, k):
    # coordinate k of twist(product(ei, ej)) - product(twist ei, twist ej)
    acc = 0
    arow = al + k * n
    base = mu + (i * n + j) * n
    for m in range(n):
        km = v[arow + m]
        if km:
            acc += km * v[base + m]
    for a in range(n):
        ai = v[al + a * n + i]
        if ai == 0:
            continue
        block = mu + a * n * n
        for b in range(n):
            bj = v[al + b * n + j]
            if bj:
                acc -= ai * bj * v[block + b * n + k]
    return acc


def _assoc(x):
    # hom-associativity of product x
    return ((1, _to, x, x, "ijk"), (-1, _ot, x, x, "ijk"))


# The identities per (i, j, k, l), as signed sums of helper terms
# (sign, helper, outer, inner, order): the helper reads its two products
# (0 the first, 1 the last; one-product kinds have only one) at the
# indices ``order`` names.
_QUARTIC = {
    "hom-algebra": (_assoc(0),),
    "hom-leibniz": (((1, _ot, 0, 0, "ijk"), (-1, _ot, 0, 0, "ikj"),
                     (-1, _to, 0, 0, "ijk")),),
    "hom-prelie": (_assoc(0) + ((-1, _to, 0, 0, "jik"),
                                (1, _ot, 0, 0, "jik")),),
    "hom-dialgebra": (
        _assoc(0), _assoc(1),
        ((1, _to, 0, 0, "ijk"), (-1, _to, 0, 1, "ijk")),
        ((1, _ot, 0, 1, "ijk"), (-1, _to, 1, 0, "ijk")),
        ((1, _ot, 1, 1, "ijk"), (-1, _ot, 1, 0, "ijk")),
    ),
    "hlsda": (
        ((1, _to, 0, 0, "ijk"), (-1, _to, 0, 1, "ijk")),
        ((1, _ot, 1, 1, "ijk"), (-1, _ot, 1, 0, "ijk")),
        _assoc(0) + ((-1, _to, 1, 0, "jik"), (1, _ot, 0, 1, "jik")),
        _assoc(1) + ((-1, _to, 1, 1, "jik"), (1, _ot, 1, 1, "jik")),
    ),
}

# the products each kind requires to commute with the twist, per (i, j, k)
_MULTIPLICATIVE = {"hom-algebra": (0,), "hom-dialgebra": (0, 1)}


@lru_cache(maxsize=None)
def _identities(kind, n):
    """Every scalar identity instance of the kind's axiom system at
    dimension n, each a tuple of terms (coefficient, helper, args) whose
    sum ``_residual`` evaluates; a candidate passes when every residual
    vanishes mod p. Equal terms are combined, and an instance that is
    zero or the negative of an earlier one is left out (the pre-Lie
    identity at (j, i, k, l) is minus the one at (i, j, k, l))."""
    if kind not in KINDS:
        raise ValueError(f"unknown search kind {kind!r}")
    _, offs, al = layout(kind, n)
    cells = range(n)
    ids = [((1, _mult, (n, al, offs[x], i, j, k)),)
           for x in _MULTIPLICATIVE.get(kind, ())
           for i, j, k in itertools.product(cells, repeat=3)]
    seen = set()
    for i, j, k, l in itertools.product(cells, repeat=4):
        orders = {"ijk": (i, j, k), "ikj": (i, k, j), "jik": (j, i, k)}
        for identity in _QUARTIC[kind]:
            coeffs = {}
            for sign, helper, outer, inner, order in identity:
                term = helper, (n, al, offs[outer], offs[inner],
                                *orders[order], l)
                coeffs[term] = coeffs.get(term, 0) + sign
            terms = tuple((c, *term) for term, c in coeffs.items() if c)
            if terms and frozenset(terms) not in seen:
                seen.add(frozenset(terms))
                seen.add(frozenset((-c, *term) for c, *term in terms))
                ids.append(terms)
    return tuple(ids)


def _residual(v, terms):
    acc = 0
    for coeff, helper, args in terms:
        acc += coeff * helper(v, *args)
    return acc


def passes(kind, v, n, p):
    """Does a flat candidate satisfy the kind's axiom system?"""
    return not any(_residual(v, terms) % p for terms in _identities(kind, n))


class _Probe(list):
    """A candidate that records in ``read`` the slots read from it."""

    def __getitem__(self, slot):
        self.read.add(slot)
        return list.__getitem__(self, slot)


def _walk(ids, p, fixed):
    """Depth-first over the free slots of ``fixed`` in lexicographic order,
    checking each identity as soon as the last free slot it reads is set.
    Yields ``(v, tail)`` for every assignment of the free slots before
    ``tail`` whose identities all hold: no identity reads a slot in
    ``tail``, so every completion of those slots passes too."""
    free = [slot for slot, x in enumerate(fixed) if x < 0]
    depth_of = {slot: d for d, slot in enumerate(free)}
    probe = _Probe(1 if x < 0 else x for x in fixed)
    checks = {}  # depth -> identities; depth -1 reads no free slot
    for terms in ids:
        probe.read = set()
        _residual(probe, terms)
        depth = max((depth_of[s] for s in probe.read if s in depth_of),
                    default=-1)
        checks.setdefault(depth, []).append(terms)
    v = [x if x >= 0 else 0 for x in fixed]
    if any(_residual(v, terms) % p for terms in checks.pop(-1, ())):
        return
    last = max(checks, default=-1)
    tail = free[last + 1:]
    d = 0
    while 0 <= d <= last:
        slot = free[d]
        if v[slot] == p:  # slot d exhausted: back up
            v[slot] = 0
            d -= 1
            if d >= 0:
                v[free[d]] += 1
            continue
        for terms in checks.get(d, ()):
            if _residual(v, terms) % p:
                break  # skips the p^(len(free)-d-1) candidates below
        else:
            if d < last:
                d += 1
                continue
            yield v, tail
        v[slot] += 1
    if last < 0:
        yield v, tail


def _assignments(v, slots, p):
    """``v`` with each assignment of ``slots``, in lexicographic order."""
    v = list(v)
    for values in itertools.product(range(p), repeat=len(slots)):
        for slot, x in zip(slots, values):
            v[slot] = x
        yield tuple(v)


def _pinned_twists(kind, n, p, fixed):
    """``fixed`` with its free twist slots pinned, one template per
    assignment: every identity reads the twist, so a walk with it free
    would prune nothing."""
    al = layout(kind, n)[2]
    return _assignments(fixed, [s for s in range(al, len(fixed))
                                if fixed[s] < 0], p)


def sweep(kind, n, p, fixed, cap):
    """Count all passing candidates; collect the first ``cap`` of them."""
    ids = _identities(kind, n)
    cap = max(0, min(cap, sys.maxsize))  # the range islice accepts
    count = 0
    samples = []
    for pinned in _pinned_twists(kind, n, p, fixed):
        found = []
        for v, tail in _walk(ids, p, pinned):
            count += p ** len(tail)
            found += itertools.islice(_assignments(v, tail, p),
                                      cap - len(found))
        # both lists are lexicographic, and they differ in the twist slots
        samples = list(itertools.islice(heapq.merge(samples, found), cap))
    return count, samples


def audit(kind_a, kind_b, n, p, fixed):
    """Over all candidates: how many pass ``kind_a``, how many of those
    fail ``kind_b``, and the first such violation (or None)."""
    if KINDS[kind_a] != KINDS[kind_b]:
        raise ValueError("audit kinds must share one layout")
    ids_a, ids_b = _identities(kind_a, n), _identities(kind_b, n)
    count = 0
    violations = 0
    examples = []  # the first violation under each twist
    for pinned in _pinned_twists(kind_a, n, p, fixed):
        first = []
        for v, tail in _walk(ids_a, p, pinned):
            # every completion of the tail passes kind_a: walk kind_b's
            # identities over the tail to count those that fail it
            survivor = [-1 if slot in tail else x for slot, x in enumerate(v)]
            failing = p ** len(tail) - sum(
                p ** len(t) for _, t in _walk(ids_b, p, survivor))
            count += p ** len(tail)
            violations += failing
            if failing and not first:
                first.append(next(c for c in _assignments(v, tail, p)
                                  if not passes(kind_b, c, n, p)))
        examples += first
    return count, violations, min(examples, default=None)
