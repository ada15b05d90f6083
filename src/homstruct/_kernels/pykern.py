"""Pure-Python search kernel, and what both search kernels share.

Evaluates the mod-p axiom systems directly on flat structure-constant
arrays (independent of the exact-arithmetic checkers) and enumerates
candidate assignments in lexicographic order. ``_identities`` is the one
place the axiom systems are written, and ``_expansion`` the one
polynomial table both kernels read: ``_table`` encodes it as flat ints
for the compiled kernel in ``_ckern``, which runs ``_scan``'s walk in C;
``Kernel`` pins a free twist and merges the sample streams for either
kernel, so both produce identical streams.

Flat layout of a candidate: the product tensors in kind order (each
n*n*n, entry (i, j, k) at ((i*n)+j)*n+k), then the twist matrix (n*n,
entry (row, col) at row*n+col; column j is the image of e_j).

Two contraction helpers cover every identity but multiplicativity
(``_mult``). Each yields the monomials (sign, slot, slot[, slot]) whose
sum is its coordinate:

* ``_ot(outer, inner, i, j, k, l)``: coordinate l of
  outer(inner(e_i, e_j), twist(e_k)) -- "combine first, twist the tail";
* ``_to(outer, inner, i, j, k, l)``: coordinate l of
  outer(twist(e_i), inner(e_j, e_k)) -- "twist the head, combine inside".

``_expansion`` multiplies each identity out into a polynomial in the
slots, once per (kind, n). The walk specialises it to each template with
the twist pinned (partial evaluation: Jones, Gomard & Sestoft, "Partial
Evaluation and Automatic Program Generation", 1993): it multiplies in the
pinned slots, combines equal monomials mod p, drops the identities that
vanish, and checks each of the rest as soon as the deepest free slot its
reduced polynomial reads is set. A slot that no surviving monomial reads
cannot change the residual mod p, so the pruning is exact (Golomb &
Baumert, "Backtrack programming", J. ACM 12, 1965). The compiled kernel
specialises and files the same polynomials the same way, in C.

The Python walk evaluates its shallowest levels, where few identities
are filed and the scalar walk would visit every node, as packed vectors:
one unsigned field of a Python int per assignment of those levels, each
identity a sum of cached grid vectors (SIMD within a register), a run of
levels at a time while packing a run pays (PACK_FIELDS and PACK_NODES).
It then resumes the scalar walk below each survivor in lexicographic
order. The compiled walk stays scalar. Both give the same stream.
"""

import itertools
import sys
from array import array
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
    if kind not in KINDS:
        raise ValueError(f"unknown search kind {kind!r}")
    products = KINDS[kind]
    offs = tuple(i * n ** 3 for i in range(products))
    alpha_off = products * n ** 3
    return alpha_off + n * n, offs, alpha_off


def _ot(n, al, outer, inner, i, j, k, l):
    base = inner + (i * n + j) * n
    for b in range(n):
        for m in range(n):
            yield 1, base + m, al + b * n + k, outer + (m * n + b) * n + l


def _to(n, al, outer, inner, i, j, k, l):
    base = inner + (j * n + k) * n
    for a in range(n):
        row = outer + a * n * n
        for m in range(n):
            yield 1, al + a * n + i, base + m, row + m * n + l


def _mult(n, al, mu, i, j, k):
    # coordinate k of twist(product(ei, ej)) - product(twist ei, twist ej)
    arow = al + k * n
    base = mu + (i * n + j) * n
    for m in range(n):
        yield 1, arow + m, base + m
    for a in range(n):
        block = mu + a * n * n
        for b in range(n):
            yield -1, al + a * n + i, al + b * n + j, block + b * n + k


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
    dimension n, each a tuple of terms (coefficient, helper, args): a
    signed sum of the helpers' monomials; a candidate passes when every
    sum vanishes mod p. Equal terms are combined, and an instance that is
    zero or the negative of an earlier one is left out (the pre-Lie
    identity at (j, i, k, l) is minus the one at (i, j, k, l))."""
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


@lru_cache(maxsize=None)
def _expansion(kind, n):
    """``_identities(kind, n)`` multiplied out: each identity a tuple of
    monomials (c, x, y, z), a coefficient times three slots x <= y <= z,
    equal monomials combined. Slot ``layout(kind, n)[0]``, one past the
    candidate, holds a constant 1; it pads multiplicativity's quadratic
    monomials."""
    one = layout(kind, n)[0]
    polys = []
    for terms in _identities(kind, n):
        poly = {}
        for coeff, helper, args in terms:
            for sign, *slots in helper(*args):
                key = (*sorted(slots), one)[:3]
                poly[key] = poly.get(key, 0) + coeff * sign
        polys.append(tuple((c, *key) for key, c in poly.items() if c))
    return tuple(polys)


def _template(kind, n, p, fixed, free=True):
    """``fixed`` as a list, refused unless it fits the kind's layout and
    each entry is a residue mod p or, where ``free``, negative (a free
    slot): the one input check of both kernels."""
    fixed = list(fixed)
    total = layout(kind, n)[0]
    if len(fixed) != total:
        raise ValueError(f"a {kind} candidate at dimension {n} has {total} "
                         f"entries, not {len(fixed)}")
    if any(x >= p or (x < 0 and not free) for x in fixed):
        raise ValueError("candidate entries must be residues mod p")
    return fixed


def passes(kind, v, n, p):
    """Does a flat candidate satisfy the kind's axiom system?"""
    v = _template(kind, n, p, v, False) + [1]
    return not any(sum([c * v[x] * v[y] * v[z] for c, x, y, z in poly]) % p
                   for poly in _expansion(kind, n))


def _holds(polys, v, p):
    return not any(sum([c * v[x] * v[y] for c, x, y in poly]) % p
                   for poly in polys)


def _specialise(polys, w, p, depth_of):
    """``polys`` on the template ``w`` (free slots negative, the constant-1
    slot last): the pinned slots multiplied in, equal monomials combined
    and reduced mod p. Each identity that does not vanish is filed, as a
    tuple of (c, x, y) over the free slots padded with the constant-1
    slot, at the depth of the deepest free slot it reads (-1 for none).
    The last slot of every monomial is a twist slot or the constant-1
    slot, pinned either way, so no monomial keeps more than two free
    slots."""
    one = len(w) - 1
    val = [1 if x < 0 else x for x in w]
    fr = [s if x < 0 else one for s, x in enumerate(w)]
    filed = {}
    for poly in polys:
        reduced = {}
        for c, x, y, z in poly:
            c *= val[x] * val[y] * val[z]
            if c:
                x, y = fr[x], fr[y]
                key = (x, y) if x <= y else (y, x)
                reduced[key] = reduced.get(key, 0) + c
        terms = tuple((c % p, x, y) for (x, y), c in reduced.items()
                      if c % p)
        if terms:
            depth = max(max(depth_of[x], depth_of[y]) for _, x, y in terms)
            filed.setdefault(depth, []).append(terms)
    return filed


# native formats of unsigned fields, narrowest first, and their widths in
# bytes; memoryview.cast and array read and write them alike
FORMATS = {f: array(f).itemsize for f in "BHIQ"}


def field_format(size, p):
    """The narrowest field format that holds a sum of ``size`` products of
    three residues mod p without carrying: the one rule for the packed
    fields of ``search._canonical_forms`` and of the walk's packed
    levels. A packed level has at most PACK_FIELDS = 8,192 fields, so
    p <= 8,192 there, and an identity at level l sums at most
    (l + 2)(l + 3) / 2 monomials: 3 below 2^39 at level 0, and below 2^20
    each from level 1 on (p <= 90), so 8 bytes always do."""
    top = size * (p - 1) ** 3
    for f, width in FORMATS.items():
        if top < 1 << 8 * width:
            return f


# The walk packs a run of levels at a time: the levels through the next
# one that files an identity (packing a level that files none prunes
# nothing). It stops before a run whose grid would pass PACK_FIELDS
# fields, or where the scalar walk would check fewer than PACK_NODES
# assignments at the run's last level: there the packed evaluation and
# the grids it builds cost about what the scalar walk saves, and in a
# fresh interpreter more. Measured on a 2-core Xeon under Python 3.11.7,
# min of 10 alternated runs, on the search workload's sweeps (dim 2, each
# invertible twist pinned, weighted as one round runs them): 144 ms for
# the scalar walk alone and 64 ms as set; caps of 4,096 and 16,384 fields
# took 95 and 56 ms (16,384 doubles the largest grid), and floors of 0
# and 128 nodes 59 and 61 ms. Without the floor, the templates whose
# first identities sit at depth 1 (most dim-2 hom-algebra and dialgebra
# ones) packed and ran no faster than the scalar walk, and their first
# sweep in a fresh interpreter took 0.1-0.2 ms more for its grids; with
# it, the GF(3) hom-leibniz templates whose first run checks 27
# assignments stay scalar, 0.15-0.35 ms slower each. A stop at fewer
# than 1/16 or 1/64 of the assignments surviving changed neither the
# round nor the unital dim-3 GF(2) sweep (211-215 ms).
PACK_FIELDS = 8192
PACK_NODES = 64

# a byte per assignment of the packed levels: 1 where it survives
_ALIVE = b"\1" + bytes(255)


class _Grids(dict):
    """The grid vectors of one packed level in one field format, each
    built on first use: a packed int whose field i, for the i-th
    assignment of the free slots at depths 0..level in lexicographic
    order, holds the product of two slots' values there. The key is
    their depths (a, b): a <= b for two free slots, and -1 for the
    constant-1 slot, which ``_specialise`` puts last, so (a, -1) for a
    free slot and it, and (-1, -1) for it alone."""

    def __init__(self, p, level, fmt):
        super().__init__()
        self.p, self.level, self.fmt = p, level, fmt

    def __missing__(self, key):
        a, b = key
        p, level, order = self.p, self.level, sys.byteorder
        width = FORMATS[self.fmt]

        def column(depth, square=False):
            # one period of the column at ``depth``: each value, or its
            # square, once per assignment of the deeper slots
            return b"".join((x * x if square else x).to_bytes(width, order)
                            * p ** (level - depth) for x in range(p))

        if a < 0:  # the constant 1
            grid = (1).to_bytes(width, order) * p ** (level + 1)
        elif b < 0 or a == b:  # repeated for each assignment above depth a
            grid = column(a, a == b) * p ** a
        else:  # one block per value x at depth a: the column at b times x
            block = column(b) * p ** (b - a - 1)
            packed = int.from_bytes(block, order)
            grid = b"".join((packed * x).to_bytes(len(block), order)
                            for x in range(p)) * p ** a
        grid = self[key] = int.from_bytes(grid, order)
        return grid


# A level keeps at most (level + 2)(level + 3) / 2 grids of at most
# PACK_FIELDS fields; the search workload's sweeps fill 8 levels with
# 177 grids, 0.68 MB in all.
@lru_cache(maxsize=16)
def _grids(p, level, fmt):
    return _Grids(p, level, fmt)


def _spread(mask, p):
    """``mask`` with each byte repeated p times: the assignments of one
    more level."""
    out = bytearray(len(mask) * p)
    for x in range(p):
        out[x::p] = mask
    return out


def _flag(mask, polys, depth_of, p, level):
    """``mask`` (a byte per assignment of the free slots at depths
    0..``level``, nonzero where one fails) with each assignment under
    which one of ``polys`` fails flagged. Each identity is the sum of
    its monomials' coefficients times their grid vectors, evaluated over
    every assignment at once in fields that do not carry."""
    if not polys:
        return mask
    fmt = field_format(max(map(len, polys)), p)
    grids, order = _grids(p, level, fmt), sys.byteorder
    fails = int.from_bytes(mask, order)
    # the translate table that flags a one-byte field not 0 mod p
    nonzero = fmt == "B" and ((bytes(1) + b"\1" * (p - 1)) * 256)[:256]
    for poly in polys:
        acc = 0
        for c, x, y in poly:
            grid = grids[depth_of[x], depth_of[y]]
            acc += grid if c == 1 else c * grid  # a big multiply saved
        raw = acc.to_bytes(len(mask) * FORMATS[fmt], order)
        if nonzero:
            raw = raw.translate(nonzero)
        else:
            raw = bytes(map(bool, map(p.__rmod__, memoryview(raw).cast(fmt))))
        fails |= int.from_bytes(raw, order)
    return fails.to_bytes(len(mask), order)


def _packed_levels(checks_a, checks_b, depth_of, p):
    """The filed identities of levels 0, 1, ... evaluated over all the
    assignments of those levels at once, a run at a time: the levels
    through the next one that files an identity. Packing stops before a
    run whose grid would pass PACK_FIELDS fields or where the scalar walk
    would check fewer than PACK_NODES assignments at its last level. Returns
    the number of levels packed and, a byte per assignment in
    lexicographic order, where one of ``checks_a`` fails and where one
    of ``checks_b`` does."""
    fails = bads = b"\0"
    top = 0
    for end in sorted({*checks_a, *checks_b}):
        spread = p ** (end + 1 - top)
        if (len(fails) * spread > PACK_FIELDS
                or fails.count(0) * spread < PACK_NODES):
            break
        for level in range(top, end + 1):
            fails = _flag(_spread(fails, p), checks_a.get(level, ()),
                          depth_of, p, level)
            if checks_b:  # a sweep's kind b has no identities
                bads = _flag(_spread(bads, p), checks_b.get(level, ()),
                             depth_of, p, level)
        top = end + 1
    return top, fails, bads if checks_b else bytes(len(fails))


def _walk(polys_a, polys_b, p, fixed):
    """Depth-first over the free slots of ``fixed`` (its twist pinned) in
    lexicographic order, checking each identity as soon as the last free
    slot it reads is set. Yields ``(v, tail, bad)`` for every assignment of
    the free slots before ``tail`` under which all of ``polys_a`` hold,
    ``v`` with the constant-1 slot appended: no identity reads a slot in
    ``tail``, so every completion of those slots passes ``polys_a`` too,
    and fails ``polys_b`` exactly when ``bad``.

    The shallowest levels, where the scalar walk would visit many nodes,
    are evaluated as packed vectors (``_packed_levels``: SIMD within a
    register, Lamport, CACM 18(8), 1975); the scalar odometer then
    resumes below each surviving assignment of them, in lexicographic
    order, so the stream is the one the scalar walk alone gives."""
    free = [slot for slot, x in enumerate(fixed) if x < 0]
    depth_of = [-1] * (len(fixed) + 1)
    for d, slot in enumerate(free):
        depth_of[slot] = d
    w = [*fixed, 1]
    checks_a, checks_b = (_specialise(polys, w, p, depth_of)
                          for polys in (polys_a, polys_b))
    v = [x if x >= 0 else 0 for x in w]
    if not _holds(checks_a.pop(-1, ()), v, p):
        return
    bad_pinned = not _holds(checks_b.pop(-1, ()), v, p)
    last = max((*checks_a, *checks_b), default=-1)
    tail = free[last + 1:]
    top, fails, bads = _packed_levels(checks_a, checks_b, depth_of, p)
    # bad[d + 1]: an identity of polys_b filed at depth d or shallower fails
    bad = [False] * (last + 2)
    packed = free[:top][::-1]  # least significant digit of an index first
    for i in itertools.compress(range(len(fails)), fails.translate(_ALIVE)):
        bad[top] = bad_pinned or bads[i]
        for slot in packed:
            i, v[slot] = divmod(i, p)
        if top > last:
            yield v, tail, bad[top]
            continue
        d = top
        while d >= top:
            slot = free[d]
            if v[slot] == p:  # slot d exhausted: back up
                v[slot] = 0
                d -= 1
                if d >= top:
                    v[free[d]] += 1
                continue
            for poly in checks_a.get(d, ()):
                acc = 0
                for c, x, y in poly:
                    acc += c * v[x] * v[y]
                if acc % p:
                    break  # skips the p^(len(free)-d-1) candidates below
            else:
                bad[d + 1] = bad[d] or (d in checks_b and
                                        not _holds(checks_b[d], v, p))
                if d < last:
                    d += 1
                    continue
                yield v, tail, bad[d + 1]
            v[slot] += 1


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


def _scan(kind_a, kind_b, n, p, fixed, cap):
    """The walk over one template: how many candidates pass ``kind_a``,
    how many of those are hits (fail ``kind_b``, or all of them when
    ``kind_b`` is None), and the first ``cap`` hits in lexicographic
    order. ``_ckern.scan`` is the same function in C; this one needs the
    template's twist pinned."""
    if min(fixed[layout(kind_a, n)[2]:], default=0) < 0:
        raise ValueError("a scan needs the twist pinned")
    polys_b = () if kind_b is None else _expansion(kind_b, n)
    count = hits = 0
    samples = []
    for v, tail, bad in _walk(_expansion(kind_a, n), polys_b, p, fixed):
        count += p ** len(tail)
        if bad or kind_b is None:
            hits += p ** len(tail)
            if len(samples) < cap:
                samples += itertools.islice(_assignments(v[:-1], tail, p),
                                            cap - len(samples))
    return count, hits, samples


@lru_cache(maxsize=None)
def _table(kind_a, kind_b, n):
    """``_expansion`` of ``kind_a``, then that of ``kind_b``, as 64-bit
    ints for the compiled kernel: the offset of ``kind_b``'s first
    identity, then per identity its monomial count and its monomials
    (c, x, y, z). A ``kind_b`` of None stands for the one identity 1 = 0,
    which every candidate fails, so that a sweep's hits are all that pass
    ``kind_a``."""
    one = layout(kind_a, n)[0]
    flat = [0]
    for polys in (_expansion(kind_a, n), (((1, one, one, one),),)
                  if kind_b is None else _expansion(kind_b, n)):
        flat[0] = len(flat)  # left, after the loop, where kind_b starts
        for poly in polys:
            flat += (len(poly), *itertools.chain(*poly))
    return array("q", flat)


class Kernel:
    """A search kernel: ``sweep``, ``audit`` and ``passes`` over a
    template ``scan``, either ``_scan`` or the compiled kernel's, which
    walks the same table. This module's own ``passes`` evaluates the
    residuals directly, the reference the tests compare the walks with."""

    def __init__(self, name, scan):
        self.NAME = name
        self._scan = scan

    def _over_twists(self, kind_a, kind_b, n, p, fixed, cap):
        """The scan's counts summed over every template with the free
        twist pinned, and the first ``cap`` hits of them all."""
        fixed = _template(kind_a, n, p, fixed)
        cap = max(0, min(cap, sys.maxsize))  # the range islice and C accept
        count = hits = 0
        samples = []
        for pinned in _pinned_twists(kind_a, n, p, fixed):
            found, failing, first = self._scan(kind_a, kind_b, n, p, pinned,
                                               cap)
            count += found
            hits += failing
            samples += first  # a lexicographic run, which sorted merges
            if len(samples) > 2 * cap:  # memory for twice the cap at most
                samples = sorted(samples)[:cap]
        return count, hits, sorted(samples)[:cap]

    def sweep(self, kind, n, p, fixed, cap):
        """Count all passing candidates; collect the first ``cap`` of them."""
        count, _, samples = self._over_twists(kind, None, n, p, fixed, cap)
        return count, samples

    def audit(self, kind_a, kind_b, n, p, fixed):
        """Over all candidates: how many pass ``kind_a``, how many of those
        fail ``kind_b``, and the first such violation (or None)."""
        if KINDS[kind_a] != KINDS[kind_b]:
            raise ValueError("audit kinds must share one layout")
        count, violations, first = self._over_twists(kind_a, kind_b, n, p,
                                                     fixed, 1)
        return count, violations, (first[0] if first else None)

    def passes(self, kind, v, n, p):
        """Does a flat candidate satisfy the kind's axiom system?"""
        return self._scan(kind, None, n, p, _template(kind, n, p, v, False),
                          0)[0] == 1


_python = Kernel(NAME, _scan)
sweep = _python.sweep
audit = _python.audit
