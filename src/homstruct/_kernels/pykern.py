"""Pure-Python search kernel, and what both search kernels share.

Evaluates the mod-p axiom systems directly on flat structure-constant
arrays (independent of the exact-arithmetic checkers) and enumerates
candidate assignments in lexicographic order. ``_identities`` is the one
place the axiom systems are written, and ``_program`` the one
specialisation of them both kernels read: ``_flat_program`` encodes it
as flat ints for the compiled kernel in ``_ckern``, which runs stage 2
and ``_scan``'s walk in C; ``Kernel`` pins a free twist and merges the
sample streams for either kernel, so both produce identical streams.

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
the twist pinned: it multiplies in the pinned slots, combines equal
monomials mod p, drops the identities that vanish, and checks each of
the rest as soon as the deepest free slot its reduced polynomial reads
is set. A slot that no surviving monomial reads cannot change the
residual mod p, so the pruning is exact (Golomb & Baumert, "Backtrack
programming", J. ACM 12, 1965). Both kernels stage the specialisation by
binding time (partial evaluation: Jones, Gomard & Sestoft, "Partial
Evaluation and Automatic Program Generation", 1993, ch. 4). Each
monomial is a coefficient times one or two product slots times a twist
monomial of degree one or two, so each identity is a sum over twist
monomials t of t(alpha) P_t(mu):

* stage 0, once per (kind, n, p): ``_by_twist`` splits every monomial
  into its product part and its twist monomial, and ``_program`` orders
  each identity's product keys by depth, one position each, and packs,
  per twist monomial, its coefficients mod p at every position into one
  integer, a fixed-width field per position (Kronecker substitution:
  Harvey, J. Symbolic Comput. 44, 2009);
* stage 1, once per sweep: ``_program`` with the pinned product slots
  multiplied in, which every twist of a sweep shares; with no product
  pinned it is stage 0. It is cached by (kind, n, p) and the product
  pins only, never by the twist;
* stage 2, once per template (``_reduced``; the compiled kernel runs it
  in C on ``_flat_program``'s encoding): each twist monomial is
  evaluated once and scales its packed integer, Sum_t t(alpha) W_t, a
  few big-integer multiply-adds; one ``to_bytes`` and, for byte fields,
  one translation mod p give every coefficient, and each identity that
  does not vanish is filed at the depth of its last nonzero position.

Over GF(2) and GF(3) the Python walk evaluates its shallowest levels,
where few identities are filed and the scalar walk would visit every
node, over every assignment of those levels at once, a run of levels at
a time while packing a run pays (PACK_BYTES and PACK_NODES). A Python
int is a bit plane, a bit per assignment for each nonzero residue: a
product is an and of planes, a sum an xor over GF(2) and a fixed or/xor
formula over GF(3), and nothing carries. When those levels hold every
filed identity, the survivors are counted by popcount and only the
first ``cap`` are decoded; otherwise the scalar walk resumes below each
survivor in lexicographic order. Over larger fields the walk is scalar
from the root: packing a byte field per assignment there measured no
faster on the full GF(5) dim-2 sweeps and twice as slow on the full
dim-1 GF(1009) hom-algebra one (the README gives the figures). The
compiled walk stays scalar. Both give the same stream.
"""

import itertools
import sys
from array import array
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache, reduce
from operator import or_

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


@lru_cache(maxsize=None)
def _by_twist(kind, n):
    """``_expansion(kind, n)`` split by binding time: the twist monomials
    as slot pairs (a, b), b a twist slot or the constant-1 slot; the
    number of identities; and every monomial as (i S^2 T + t, x, y, c):
    c times the product slots x <= y (the constant-1 slot pads a lone
    one) times twist monomial t of T, in identity i, where S counts the
    slots and the constant-1 slot."""
    one, _, al = layout(kind, n)
    pairs = {}
    split = []
    polys = _expansion(kind, n)
    for i, poly in enumerate(polys):
        for c, *slots in poly:
            k = sum(s < al for s in slots)  # slots ascend, products first
            t = pairs.setdefault((*slots[k:], one)[:2], len(pairs))
            split.append((i, t, *(*slots[:k], one)[:2], c))
    block = (one + 1) ** 2 * len(pairs)
    return tuple(pairs), len(polys), tuple((i * block + t, x, y, c)
                                           for i, t, x, y, c in split)


# the byte translation to 1 where a byte is nonzero
_NONZERO = bytes([0]) + bytes([1]) * 255

# ``_program``'s result: per twist monomial that keeps a coefficient,
# ``terms`` holds (a, b, packed); ``width`` bytes per field; ``table``,
# the byte translation mod p where ``width`` is 1; per position, its key
# (``xs`` its deepest free slot, ``ys`` the other or the constant-1 slot)
# and the depth of ``xs``; ``bounds``, where each identity's positions
# start, and where the last one's end; the free slots by depth, and each
# slot's depth (-1 if pinned or the constant-1 slot).
_Program = namedtuple("_Program", "terms width table xs ys depths bounds "
                                  "free depth_of")


@lru_cache(maxsize=32)
def _program(kind, n, p, pins):
    """Stages 0 and 1 of the specialisation: ``_by_twist`` with the
    product pins ``pins`` (the template's product slots, free ones
    negative) multiplied in, keyed by them alone. Each identity keeps a
    position per product key with a coefficient nonzero mod p, ordered
    by depth, and per twist monomial the coefficients of every position
    are packed into one integer, a field of ``width`` bytes per
    position: enough for a sum of one product of two residues per twist
    monomial."""
    one = len(pins) + n * n
    free = [s for s, x in enumerate(pins) if x < 0]
    depth_of = [-1] * (one + 1)
    for d, s in enumerate(free):
        depth_of[s] = d
    pad = [1] * (one + 1 - len(pins))  # the twist and constant-1 slots
    val = [1 if x < 0 else x for x in pins] + pad
    # a key's slots ranked so that the constant-1 and pinned slots come
    # first: a free slot s ranks s + 1, the others 0
    rank = [s + 1 if x < 0 else 0 for s, x in enumerate(pins)]
    rank += [0] * len(pad)
    pairs, count, split = _by_twist(kind, n)
    size, many = one + 1, len(pairs)
    folded = {}  # ((i size + higher rank) size + lower rank) many + t -> c
    for base, x, y, c in split:
        c *= val[x] * val[y]
        if c:
            a, b = rank[x], rank[y]
            key = base + (b * size + a if b else a * size) * many
            folded[key] = folded.get(key, 0) + c
    codes = sorted({key // many for key, c in folded.items() if c % p})
    at = dict(zip(codes, range(len(codes))))
    width = max(1, -(-(many * (p - 1) ** 2).bit_length() // 8))
    fields = [bytearray(len(codes) * width) for _ in pairs]
    for key, c in folded.items():
        c %= p
        if c:
            code, t = divmod(key, many)
            if width == 1:
                fields[t][at[code]] = c
            else:
                pos = at[code] * width
                fields[t][pos:pos + width] = c.to_bytes(width, "little")
    slot = [one, *range(size - 1)]  # the slot of each rank
    xs = tuple([slot[code // size % size] for code in codes])
    return _Program(
        tuple((*pair, int.from_bytes(packed, "little"))
              for pair, packed in zip(pairs, fields) if any(packed)),
        width, (bytes(range(min(p, 256))) * (256 // p + 1))[:256]
        if width == 1 else None,
        xs, tuple([slot[code % size] for code in codes]),
        tuple(map(depth_of.__getitem__, xs)),
        tuple(bisect_left(codes, i * size * size) for i in range(count + 1)),
        tuple(free), tuple(depth_of))


def _reduced(program, v, p):
    """Stage 2, once per template: ``program`` on ``v`` (the template, its
    twist pinned, with the constant-1 slot appended). Per identity, in
    ``_expansion``'s order, None where it vanishes mod p and otherwise
    ``(depth, terms)``: the terms (c, x, y) over the free slots, padded
    with the constant-1 slot, with 0 < c < p, and the depth of the
    deepest free slot they read (-1 for none), that of its last term.
    Each twist monomial is evaluated once and scales its packed
    coefficients, one big-integer multiply-add each; the fields come out
    of one ``to_bytes`` and, a byte each, one translation mod p."""
    terms, width, table, xs, ys, depths, bounds = program[:7]
    acc = 0
    for a, b, packed in terms:
        t = v[a] * v[b] % p
        if t:
            acc += t * packed
    raw = acc.to_bytes(len(xs) * width, "little")
    if table:
        res = raw.translate(table)
        nonzero = res.translate(_NONZERO)
    else:
        res = [int.from_bytes(raw[i:i + width], "little") % p
               for i in range(0, len(raw), width)]
        nonzero = map(bool, res)
    kept = list(zip(itertools.compress(res, res),
                    itertools.compress(xs, res), itertools.compress(ys, res)))
    deep = list(itertools.compress(depths, res))
    before = list(itertools.accumulate(nonzero, initial=0))
    for a, b in itertools.pairwise(map(before.__getitem__, bounds)):
        yield (deep[b - 1], kept[a:b]) if a < b else None


def _filed(program, v, p):
    """``_reduced``'s identities filed in a list indexed by depth: entry
    d holds those filed at depth d, and the last entry, which index -1
    reads, those that read no free slot."""
    checks = [[] for _ in range(len(program.free) + 1)]
    for filed in _reduced(program, v, p):
        if filed:
            checks[filed[0]].append(filed[1])
    return checks


# The walk packs a run of levels at a time: the levels through the next
# one that files an identity (packing a level that files none prunes
# nothing). It stops before a run whose vectors would pass PACK_BYTES
# bytes, or where the scalar walk would check fewer than PACK_NODES
# assignments at the run's last level: there the packed evaluation costs
# about what the scalar walk saves. A vector holds a bit per assignment
# over GF(2) and two over GF(3) (a plane per nonzero residue), so 8,192
# bytes are 65,536 assignments over GF(2), all 16 free levels of a
# twist-pinned dim-2 two-product template, and 32,768 per GF(3) plane
# (9 levels); over larger fields nothing packs (see the module
# docstring). Measured on a 2-core Xeon under Python 3.11.7, min of 10
# alternated runs, on the search workload's sweeps (dim 2, each
# invertible twist pinned, weighted as one round runs them): 238 ms for
# the scalar walk alone and 31.5 ms as set; caps of 2,048, 4,096 and
# 16,384 bytes took 53.4, 39.9 and 32.4 ms (the GF(2) hlsda sweeps need
# all 16 levels), and floors of 0, 8, 27, 64 and 128 nodes 33.9, 34.9,
# 35.3, 46.6 and 51.5 ms. From 32 on, the GF(3) hom-leibniz templates
# whose first run checks 27 assignments stay scalar, 3-4x slower, and
# the GF(2) dialgebra ones whose first run checks 32, 1.1-3.3x slower.
# At 16 the GF(3) hom-algebra templates whose first identity sits at
# depth 0 or 1 stay scalar, and the others run 1.7-6x faster packed.
PACK_BYTES = 8192
PACK_NODES = 16

# bits per assignment of the bit-sliced fields
_PLANE_BITS = {2: 1, 3: 2}


def _run_pays(size, survivors, spread, p):
    """Whether to pack a run that widens ``size`` assignments, of which
    ``survivors`` survive, ``spread`` times."""
    return (size * spread * _PLANE_BITS[p] <= 8 * PACK_BYTES
            and survivors * spread >= PACK_NODES)


def _widen(mask, size, p):
    """``mask`` over ``size`` positions repeated p times: the same flags
    for each value of one more digit, the most significant."""
    out = mask
    for x in range(1, p):
        out |= mask << x * size
    return out


@lru_cache(maxsize=32)
def _columns(p, level):
    """The bit planes of the free slots at depths 0..``level`` over GF(2)
    or GF(3), for the p^(level + 1) assignments of those slots: position
    i holds the assignment whose value at depth d is digit d of i in base
    p, depth 0 least significant. Per depth, the masks of the positions
    where the slot is 1 and, over GF(3), where it is 2; then those of the
    constant-1 slot, last so that depth -1 reads them."""
    columns = []
    for d in range(level + 1):
        planes = []
        for x in range(1, p):
            mask, size = ((1 << p ** d) - 1) << x * p ** d, p ** (d + 1)
            for _ in range(level - d):
                mask, size = _widen(mask, size, p), size * p
            planes.append(mask)
        columns.append(tuple(planes))
    full = (1 << p ** (level + 1)) - 1
    return (*columns, (full, 0)[:p - 1])


def _add3(a, b):
    """The sum of two GF(3) plane pairs (ones, twos), at every position at
    once; planes never carry."""
    a1, a2 = a
    b1, b2 = b
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _mul3(a, b):
    """The product of two GF(3) plane pairs (ones, twos): 1 * 1 and
    2 * 2 are 1, 1 * 2 and 2 * 1 are 2."""
    a1, a2 = a
    b1, b2 = b
    return (a1 & b1) | (a2 & b2), (a1 & b2) | (a2 & b1)


class _Planes(dict):
    """The product planes of one packed level over GF(3), each built on
    first use from ``_columns``: the key (c, a, b) holds the plane pair of
    c times the product of the slots at depths a and b (-1 for the
    constant-1 slot); a coefficient of 2 swaps the pair."""

    def __init__(self, level):
        super().__init__()
        self.level = level

    def __missing__(self, key):
        c, a, b = key
        columns = _columns(3, self.level)
        planes = _mul3(columns[a], columns[b])
        self[key] = planes = planes[::-1] if c == 2 else planes
        return planes


@lru_cache(maxsize=32)
def _planes(level):
    return _Planes(level)


def _plane_flags(polys, depth_of, p, level):
    """The positions (as ``_columns`` orders the assignments of depths
    0..``level``) where one of ``polys`` fails, as a bit mask: each
    identity summed over every assignment at once (bitslicing: Boothby &
    Bradshaw, arXiv:0901.1413, 2009), over GF(2) as the xor of the ands
    of two columns, over GF(3) with ``_add3`` over ``_Planes``. A GF(2)
    product costs one and, so it is not kept: at 16 levels the grids
    would hold 1.2 MB."""
    flags = 0
    if p == 2:
        columns = _columns(2, level)
        for poly in polys:
            acc = 0
            for _, x, y in poly:
                acc ^= columns[depth_of[x]][0] & columns[depth_of[y]][0]
            flags |= acc
        return flags
    planes = _planes(level)
    for poly in polys:
        acc = 0, 0
        for c, x, y in poly:
            acc = _add3(acc, planes[c, depth_of[x], depth_of[y]])
        flags |= acc[0] | acc[1]
    return flags


@lru_cache(maxsize=32)
def _reversal(p, top):
    """The delta swaps (mask, shift) that reverse the digits of every
    position of ``_columns(p, top - 1)``: digits j and top - 1 - j trade
    values a > b, so the position with a at j and b at k moves up by
    (a - b)(p^k - p^j), and every mask marks the lower position of its
    pairs."""
    if top < 2:
        return ()
    columns = _columns(p, top - 1)
    full = columns[-1][0]

    def where(d, x):  # positions whose digit d is x
        return columns[d][x - 1] if x else full ^ reduce(or_, columns[d])

    return tuple((where(j, a) & where(top - 1 - j, b),
                  (a - b) * (p ** (top - 1 - j) - p ** j))
                 for j in range(top // 2)
                 for b, a in itertools.combinations(range(p), 2))


def _lex(mask, p, top):
    """``mask`` over ``_columns(p, top - 1)``'s positions, in
    lexicographic order: bit r for the r-th assignment of depths
    0..top - 1, depth 0 most significant (a digit reversal by delta
    swaps: Knuth, TAOCP 4A, 7.1.3)."""
    for m, shift in _reversal(p, top):
        t = ((mask >> shift) ^ mask) & m
        mask ^= t | t << shift
    return mask


def _packed_levels(checks_a, checks_b, filed, depth_of, p):
    """The filed identities of levels 0, 1, ... over all the assignments
    of those levels at once, a run at a time (through the next depth of
    ``filed``, ascending) while ``_run_pays``, over GF(2) and GF(3) only,
    bit-sliced in ``_columns``' order so that a run widens by shifts.
    Returns the number of levels packed and two bit masks over their
    assignments, bit r for the r-th in lexicographic order: where one of
    ``checks_a`` fails, and where one of ``checks_b`` does."""
    if p not in _PLANE_BITS:
        return 0, 0, 0
    fails = bads = top = 0
    for end in filed:
        size, spread = p ** top, p ** (end + 1 - top)
        if not _run_pays(size, size - fails.bit_count(), spread, p):
            break
        for _ in range(top, end + 1):
            fails, bads, size = (_widen(fails, size, p),
                                 _widen(bads, size, p), size * p)
        fails |= _plane_flags(checks_a[end], depth_of, p, end)
        bads |= _plane_flags(checks_b[end], depth_of, p, end)
        top = end + 1
    return top, _lex(fails, p, top), _lex(bads, p, top)


def _ones(mask):
    """The positions of the set bits of ``mask``, ascending."""
    words = array("Q", mask.to_bytes(-(-mask.bit_length() // 64) * 8,
                                     "little"))
    if sys.byteorder == "big":
        words.byteswap()
    for w in itertools.compress(range(len(words)), words):
        word, base = words[w], w << 6
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low


def _frontier(kind_a, kind_b, n, p, fixed):
    """The walk's start on ``fixed`` (its twist pinned): None when an
    identity of ``kind_a`` that reads only pinned slots fails, and
    otherwise ``(v, free, checks_a, checks_b, last, top, alive, bads)``:
    the template with its free slots 0 and the constant-1 slot appended,
    the free slots by depth, both kinds' identities in lists indexed by
    depth (``_filed``; none for a ``kind_b`` of None), the deepest depth
    filed (-1 for none), and the ``top`` levels packed with their bit
    masks, bit r for the r-th assignment in lexicographic order: where
    every identity of ``kind_a`` filed there holds, and where one of
    ``kind_b`` (pinned ones included) fails."""
    pins = tuple(fixed[:layout(kind_a, n)[2]])
    program = _program(kind_a, n, p, pins)
    free, depth_of = program.free, program.depth_of
    v = [x if x >= 0 else 0 for x in fixed]
    v.append(1)
    checks_a = _filed(program, v, p)
    checks_b = ([()] * len(checks_a) if kind_b is None
                else _filed(_program(kind_b, n, p, pins), v, p))
    if checks_a[-1]:  # an identity that reads no free slot is a nonzero
        return None   # constant: every candidate fails it
    filed = [d for d in range(len(free)) if checks_a[d] or checks_b[d]]
    top, fails, bads = _packed_levels(checks_a, checks_b, filed, depth_of,
                                      p)
    full = (1 << p ** top) - 1
    return (v, free, checks_a, checks_b, filed[-1] if filed else -1, top,
            full ^ fails, full if checks_b[-1] else bads)


def _decode(v, free, top, i, p, prev=-1):
    """``v`` with the free slots at depths 0..top - 1 set to the i-th of
    their assignments in lexicographic order, where ``v`` holds the
    ``prev``-th: only the digits where i and ``prev`` differ are set."""
    d = top - 1
    while d >= 0 and i != prev:
        i, v[free[d]] = divmod(i, p)
        prev //= p
        d -= 1


def _below(v, free, checks_a, checks_b, last, top, alive, bads, p):
    """Depth-first over the free slots of a template (its twist pinned),
    from what ``_frontier`` returns for it, in lexicographic order,
    checking each identity as soon as the last free slot it reads is set.
    Yields ``(v, bad)`` for every assignment of the free slots at depths
    0..``last`` under which every identity of ``checks_a`` holds, ``v``
    with the constant-1 slot appended. No identity reads the tail
    ``free[last + 1:]``, so each completion of it passes too, and fails
    ``checks_b`` exactly when ``bad``. It needs ``top <= last``: ``_scan``
    counts a template whose filed levels are all packed without a walk.

    The ``top`` shallowest levels come evaluated as packed vectors
    (``_packed_levels``: SIMD within a register, Lamport, CACM 18(8),
    1975); the scalar odometer resumes below each surviving assignment of
    them, in lexicographic order, so the stream is the one the scalar
    walk alone gives."""
    # bad[d + 1]: an identity of checks_b filed at depth d or above fails
    bad = [False] * (last + 2)
    flags = bads.to_bytes((p ** top + 7) // 8, "little")
    prev = -1
    for i in _ones(alive):
        bad[top] = flags[i >> 3] >> (i & 7) & 1
        _decode(v, free, top, i, p, prev)
        prev = i
        d = top
        while d >= top:
            slot = free[d]
            if v[slot] == p:  # slot d exhausted: back up
                v[slot] = 0
                d -= 1
                if d >= top:
                    v[free[d]] += 1
                continue
            for poly in checks_a[d]:
                acc = 0
                for c, x, y in poly:
                    acc += c * v[x] * v[y]
                if acc % p:
                    break  # skips the p^(len(free)-d-1) candidates below
            else:
                checks = checks_b[d]
                bad[d + 1] = bad[d] or bool(checks) and any(
                    sum([c * v[x] * v[y] for c, x, y in poly]) % p
                    for poly in checks)
                if d < last:
                    d += 1
                    continue
                yield v, bad[d + 1]
            v[slot] += 1


def _assignments(v, slots, p):
    """``v`` with each assignment of ``slots``, in lexicographic order."""
    v = list(v)
    for i in range(p ** len(slots)):
        _decode(v, slots, len(slots), i, p, i - 1)
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
    front = _frontier(kind_a, kind_b, n, p, fixed)
    if front is None:
        return 0, 0, []
    v, free, _, _, last, top, alive, bads = front
    tail = free[last + 1:]  # every survivor's: no identity reads it
    every = p ** len(tail)
    if top > last:  # every filed level packed: no walk below the survivors
        hit = alive if kind_b is None else alive & bads
        samples = []
        for i in itertools.islice(_ones(hit), cap):
            _decode(v, free, top, i, p)
            samples += itertools.islice(_assignments(v[:-1], tail, p),
                                        cap - len(samples))
            if len(samples) == cap:
                break
        return alive.bit_count() * every, hit.bit_count() * every, samples
    count = hits = 0
    samples = []
    for v, bad in _below(*front, p):
        count += 1
        if bad or kind_b is None:
            hits += 1
            if len(samples) < cap:
                samples += itertools.islice(_assignments(v[:-1], tail, p),
                                            cap - len(samples))
    return count * every, hits * every, samples


@lru_cache(maxsize=32)
def _flat_program(kind_a, kind_b, n, p, pins):
    """``_program`` of ``kind_a``, then of ``kind_b`` (None: the identity
    1 = 0, which every candidate fails), as 64-bit ints for the compiled
    kernel: the numbers of positions and identities and the first
    identity of ``kind_b``; the identities' position bounds; the
    positions' slots x, then y; then, to the end, per twist monomial its
    slot pair, a count, and that many positions and coefficients mod p."""
    one = len(pins) + n * n
    first = _program(kind_a, n, p, pins)
    bounds, xs, ys, terms = [0], [], [], []
    for prog in (first, _program(kind_b, n, p, pins) if kind_b else _Program(
            ((one, one, 1),), 1, None, (one,), (one,), (), (0, 1), (), ())):
        w, base = prog.width, len(xs)
        for a, b, packed in prog.terms:
            raw = packed.to_bytes(len(prog.xs) * w, "little")
            fields = raw if w == 1 else [int.from_bytes(raw[i:i + w], "little")
                                         for i in range(0, len(raw), w)]
            nonzero = (raw.translate(_NONZERO) if w == 1
                       else bytes(map(bool, fields)))
            at, i = [], nonzero.find(1)
            while i >= 0:  # a find per coefficient: most fields are 0
                at.append(i)
                i = nonzero.find(1, i + 1)
            terms += (a, b, len(at), *[base + i for i in at],
                      *[fields[i] for i in at])
        bounds += [base + i for i in prog.bounds[1:]]
        xs += prog.xs
        ys += prog.ys
    return array("q", [len(xs), len(bounds) - 1, len(first.bounds) - 1,
                       *bounds, *xs, *ys, *terms])


class Kernel:
    """A search kernel: ``sweep``, ``audit`` and ``passes`` over a
    template ``scan``, either ``_scan`` or the compiled kernel's, which
    walks the same program. This module's own ``passes`` evaluates the
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
