"""Parity and correctness of the two search kernels.

Both kernels read pykern's one polynomial table, ``_expansion`` (each
identity multiplied out over flat arrays, rather than the vector-calculus
evaluators), through pykern's one staged specialisation of it to a
template, and walk the result the same way, pykern's in Python and the
compiled one in C. The table is checked against the exact checkers, each
specialised identity against the residual it stands for, each walk
against an unpruned reference that decides every candidate with pykern's
``passes``, and the compiled walk against pykern's on the same
templates. The Python walk's packed shallow levels meet the same
reference with their stop constants at the default, at no packed level
and at every level. The compiled kernel refuses a malformed program.
"""

import itertools
import random
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import homstruct as hs
from homstruct import search
from homstruct._kernels import pykern
from homstruct.fields import PrimeField
from homstruct.search import (SearchSpec, enumerate_structures,
                              structure_from_flat)


def flat_candidates(kind, n, p):
    total, _, _ = pykern.layout(kind, n)
    return st.lists(st.integers(0, p - 1), min_size=total, max_size=total)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(pykern.KINDS)), st.integers(1, 2), st.data())
def test_python_kernel_agrees_with_exact_checkers(kind, n, data):
    p = 3
    flat = data.draw(flat_candidates(kind, n, p))
    kernel_says = pykern.passes(kind, flat, n, p)
    structure = structure_from_flat(kind, flat, n, p)
    checker_says = hs.run_check(kind, structure).passed
    assert kernel_says == checker_says


def test_kernel_checker_agreement_in_dimension_three():
    rng = random.Random(42)
    for kind in sorted(pykern.KINDS):
        total, _, _ = pykern.layout(kind, 3)
        for _ in range(15):
            flat = [rng.randrange(5) for _ in range(total)]
            structure = structure_from_flat(kind, flat, 3, 5)
            assert pykern.passes(kind, flat, 3, 5) == \
                hs.run_check(kind, structure).passed


# the compiled kernel is built once per session; hypothesis need not reset it
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(pykern.KINDS)),
       st.sampled_from([2, 3, 5, 4294967291]), st.data())
def test_kernels_agree_on_random_candidates(compiled, kind, p, data):
    n = 2
    flat = data.draw(flat_candidates(kind, n, p))
    assert pykern.passes(kind, flat, n, p) == compiled.passes(kind, flat, n, p)


def test_candidate_order_is_lexicographic():
    # with the twist pinned to zero every candidate passes, so the stream
    # is the whole space: first free slot most significant, the pinned
    # middle slot untouched
    total, _, al = pykern.layout("hom-algebra", 2)
    fixed = [-1] * al + [0] * (total - al)
    fixed[3] = 1
    count, samples = pykern.sweep("hom-algebra", 2, 3, fixed, 3 ** 7)
    assert count == 3 ** 7
    assert samples == [(*head, 1, *rest) + (0,) * 4
                       for head in itertools.product(range(3), repeat=3)
                       for rest in itertools.product(range(3), repeat=4)]


def test_pinned_slots_never_move():
    total, _, _ = pykern.layout("hom-algebra", 2)
    fixed = [-1] * total
    fixed[3] = 1
    count, samples = pykern.sweep("hom-algebra", 2, 2, fixed, 1 << 12)
    assert samples
    assert all(s[3] == 1 for s in samples)


class TestClassicalReductionOfRemainingCheckers:
    """With the identity twist, kernel predicates coincide with the
    untwisted axioms evaluated directly."""

    def classical_leibniz_holds(self, s):
        n, f = s.dim, s.field
        basis = [hs.basis_vector(f, n, i) for i in range(n)]
        br = s.bracket
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = hs.apply_bilinear(
                        br, hs.apply_bilinear(br, basis[i], basis[j]),
                        basis[k])
                    rhs = hs.apply_bilinear(
                        br, hs.apply_bilinear(br, basis[i], basis[k]),
                        basis[j]).add(hs.apply_bilinear(
                            br, basis[i],
                            hs.apply_bilinear(br, basis[j], basis[k])))
                    if not hs.tensors_equal(lhs, rhs):
                        return False
        return True

    def test_leibniz_reduction(self, leibniz2dim):
        assert leibniz2dim.alpha.is_identity()
        assert self.classical_leibniz_holds(leibniz2dim)
        assert hs.run_check("hom-leibniz", leibniz2dim).passed
        gf = PrimeField(2)
        broken = hs.HomLeibniz(
            hs.ProductTensor(gf, (((0, 1), (1, 0)), ((0, 0), (0, 1)))),
            hs.identity_map(gf, 2))
        assert self.classical_leibniz_holds(broken) == \
            hs.run_check("hom-leibniz", broken).passed

    def test_dialgebra_reduction_on_classical_fixture(self, ut2):
        from homstruct.constructions import dialgebra_from_differential
        d = dialgebra_from_differential(ut2)
        assert d.alpha.is_identity()
        # with the identity twist the strict and twisted readings agree
        assert hs.run_check("hom-dialgebra", d).passed
        assert hs.run_check("hom-dialgebra", d, strict_assoc=True).passed


def brute_candidates(fixed, p):
    """Every assignment of the free slots of ``fixed``, first free slot
    most significant: the walk's reference order, without pruning."""
    free = [slot for slot, x in enumerate(fixed) if x < 0]
    for values in itertools.product(range(p), repeat=len(free)):
        v = list(fixed)
        for slot, x in zip(free, values):
            v[slot] = x
        yield tuple(v)


def brute_sweep(kind, n, p, fixed, cap):
    hits = [v for v in brute_candidates(fixed, p)
            if pykern.passes(kind, v, n, p)]
    return len(hits), hits[:cap]


def brute_audit(kind_a, kind_b, n, p, fixed):
    passing = [v for v in brute_candidates(fixed, p)
               if pykern.passes(kind_a, v, n, p)]
    failing = [v for v in passing if not pykern.passes(kind_b, v, n, p)]
    return len(passing), len(failing), (failing[0] if failing else None)


def random_template(rng, kind, n, p, twist, space=243):
    """Mostly-zero pinned entries (so that some candidates pass), the twist
    free, partly pinned or pinned, and free product slots up to about
    ``space`` candidates."""
    total, _, al = pykern.layout(kind, n)
    fixed = [rng.randrange(p) if rng.random() < 0.3 else 0
             for _ in range(total)]
    twist_slots = list(range(al, total))
    if twist == "partly pinned":
        free = rng.sample(twist_slots, rng.randrange(1, len(twist_slots)))
    else:
        free = twist_slots if twist == "free" else []
    products = rng.sample(range(al), al)
    while products and p ** (len(free) + 1) <= space:
        free.append(products.pop())
    for slot in free:
        fixed[slot] = -1
    return fixed


WALK_CASES = [(kind, n, p, twist) for kind in sorted(pykern.KINDS)
              for n in (1, 2) for p in (2, 3)
              for twist in ("free", "partly pinned", "pinned")
              if not (n == 1 and twist == "partly pinned")]


class TestPrunedWalk:
    """Each kernel's pruned walk against an unpruned reference over the
    same free slots: same count and same sample stream, in the same
    order."""

    @pytest.fixture
    def kernel(self):
        return pykern

    @pytest.mark.parametrize("kind, n, p, twist", WALK_CASES)
    def test_matches_brute_force(self, kernel, kind, n, p, twist):
        rng = random.Random(f"{kind}:{n}:{p}:{twist}")
        counts = []
        for _ in range(4):
            fixed = random_template(rng, kind, n, p, twist)
            want = brute_sweep(kind, n, p, fixed, 1 << 20)
            assert kernel.sweep(kind, n, p, fixed, 1 << 20) == want, fixed
            counts.append(want[0])
        assert any(counts)

    @pytest.mark.parametrize("kind", sorted(pykern.KINDS))
    def test_caps(self, kernel, kind):
        rng = random.Random(kind)
        fixed = random_template(rng, kind, 2, 2, "free", space=512)
        count, every = brute_sweep(kind, 2, 2, fixed, 1 << 20)
        assert count > 2
        assert kernel.sweep(kind, 2, 2, fixed, 0) == (count, [])
        assert kernel.sweep(kind, 2, 2, fixed, -1) == (count, [])
        assert kernel.sweep(kind, 2, 2, fixed, 2) == (count, every[:2])
        assert kernel.sweep(kind, 2, 2, fixed, 2 ** 70) == (count, every)

    @pytest.mark.parametrize("kind", sorted(pykern.KINDS))
    def test_template_without_free_slots(self, kernel, kind):
        rng = random.Random(kind)
        total, _, al = pykern.layout(kind, 2)
        zero_products = [0] * al + [rng.randrange(3) for _ in range(4)]
        dense = [rng.randrange(3) for _ in range(total)]
        for v in (zero_products, dense):
            passing = pykern.passes(kind, v, 2, 3)
            assert kernel.passes(kind, v, 2, 3) == passing
            assert kernel.sweep(kind, 2, 3, v, 5) == \
                ((1, [tuple(v)]) if passing else (0, []))
        assert kernel.sweep(kind, 2, 3, zero_products, 5)[0] == 1

    def test_audit_against_a_system_with_no_identities(self, kernel):
        # at dimension 1 the hom-pre-Lie identity vanishes: every candidate
        # passes it, so nothing violates it
        assert pykern._expansion("hom-prelie", 1) == ()
        for kind in ("hom-algebra", "hom-leibniz"):
            want = brute_audit(kind, "hom-prelie", 1, 3, [-1, -1])
            assert want[0] > 0 and want[1] == 0
            assert kernel.audit(kind, "hom-prelie", 1, 3, [-1, -1]) == want

    def test_pinned_slots_that_already_fail(self, kernel):
        # identity twist, bracket(e0, e0) = e0 pinned: the Leibniz identity
        # at (0, 0, 0, 0) reads only pinned slots and fails
        total, _, al = pykern.layout("hom-leibniz", 2)
        fixed = [1, 0] + [-1] * (al - 2) + [1, 0, 0, 1]
        assert brute_sweep("hom-leibniz", 2, 3, fixed, 5) == (0, [])
        assert kernel.sweep("hom-leibniz", 2, 3, fixed, 5) == (0, [])

    @pytest.mark.parametrize("kind", sorted(pykern.KINDS))
    def test_pinned_template_over_a_large_prime(self, kernel, kind):
        p = 4294967291  # the largest prime below 2^32
        rng = random.Random(kind)
        total, _, al = pykern.layout(kind, 2)
        zero_products = [0] * al + [rng.randrange(p) for _ in range(4)]
        dense = [rng.randrange(p) for _ in range(total)]
        for v in (zero_products, dense):
            exact = hs.run_check(kind,
                                 structure_from_flat(kind, v, 2, p)).passed
            assert kernel.sweep(kind, 2, p, v, 1) == \
                ((1, [tuple(v)]) if exact else (0, []))

    @pytest.mark.parametrize("kinds, n, p", [
        (("hom-dialgebra", "hlsda"), 2, 2),
        (("hlsda", "hom-dialgebra"), 2, 2),
        (("hom-algebra", "hom-prelie"), 2, 3),
        (("hom-prelie", "hom-algebra"), 2, 3),
        (("hom-leibniz", "hom-prelie"), 2, 2),
    ])
    def test_audit_matches_brute_force(self, kernel, kinds, n, p):
        rng = random.Random(f"{kinds}:{n}:{p}")
        for twist in ("free", "partly pinned", "pinned"):
            fixed = random_template(rng, kinds[0], n, p, twist, space=512)
            assert kernel.audit(*kinds, n, p, fixed) == \
                brute_audit(*kinds, n, p, fixed), fixed

    @pytest.mark.parametrize("kinds", [("hlsda", "hom-dialgebra"),
                                       ("hom-dialgebra", "hlsda")])
    def test_audit_on_a_separating_subspace(self, kernel, kinds):
        # the first 8 slots pinned to zero: 2^12 candidates, among them
        # hlsda structures that are not dialgebras (and none the other way)
        fixed = [0] * 8 + [-1] * (pykern.layout("hlsda", 2)[0] - 8)
        want = brute_audit(*kinds, 2, 2, fixed)
        assert (want[1] > 0) == (kinds[0] == "hlsda")
        assert kernel.audit(*kinds, 2, 2, fixed) == want

    @pytest.mark.parametrize("call", ["sweep", "audit", "passes"])
    def test_entries_outside_the_field_refused(self, kernel, call):
        # one input contract for both kernels: a pinned entry must be a
        # residue mod p, and ``passes`` takes no free slot
        run = {"sweep": lambda v: kernel.sweep("hom-algebra", 1, 3, v, 5),
               "audit": lambda v: kernel.audit("hom-algebra", "hom-prelie",
                                               1, 3, v),
               "passes": lambda v: kernel.passes("hom-algebra", v, 1, 3)}[call]
        bad = [[4, -1], [3, 0], [0, 5]]
        if call == "passes":
            bad += [[-1, 0], [0, -2]]
        for v in bad:
            with pytest.raises(ValueError, match="residues mod p"):
                run(v)
        with pytest.raises(ValueError, match="entries, not 3"):
            run([0, 1, 2])


class TestCompiledWalk(TestPrunedWalk):
    """The same cases on the compiled kernel, built from source."""

    @pytest.fixture
    def kernel(self, compiled):
        return compiled


def brute_scan(kind_a, kind_b, n, p, fixed, cap):
    """``pykern._scan`` without pruning or packing: how many candidates
    pass ``kind_a``, how many of those fail ``kind_b`` (all, when None),
    and the first ``cap`` of those."""
    passing = [v for v in brute_candidates(fixed, p)
               if pykern.passes(kind_a, v, n, p)]
    hits = [v for v in passing
            if kind_b is None or not pykern.passes(kind_b, v, n, p)]
    return len(passing), len(hits), hits[:cap]


# candidates per brute-force template, and each kind's audit partner
PACKED_SPACE = {2: 512, 3: 729, 5: 625, 7: 343, 17: 289}
AUDIT_PARTNER = {"hom-algebra": "hom-prelie", "hom-leibniz": "hom-algebra",
                 "hom-prelie": "hom-algebra", "hom-dialgebra": "hlsda",
                 "hlsda": "hom-dialgebra"}


def packed_template(rng, kind, n, p, noise):
    """An invertible twist pinned (or, with ``noise``, a singular one
    half the time), product slots free up to about ``PACKED_SPACE[p]``
    candidates (256 at n = 3), and the other product slots pinned to
    zero or, each with probability ``noise``, to a random residue. With
    no noise the all-zero candidate passes."""
    _, _, al = pykern.layout(kind, n)
    fixed = [rng.randrange(p) if rng.random() < noise else 0
             for _ in range(al)]
    fixed += random_twist(rng, n, p, rng.choice(
        ["singular", "invertible"] if noise else ["invertible"]))
    free = 0
    while free < al and p ** (free + 1) <= (PACKED_SPACE[p] if n < 3
                                            else 256):
        free += 1
    for slot in rng.sample(range(al), free):
        fixed[slot] = -1
    return fixed


def packed_cases(kind, n, p, count=3):
    """``packed_template``s with kind b None and the kind's audit partner,
    as ``_scan`` arguments with a cap of 3."""
    rng = random.Random(f"packed:{kind}:{n}:{p}")
    return [(kind, kind_b, n, p, fixed, 3)
            for fixed in (packed_template(rng, kind, n, p, noise)
                          for noise in [0, 0.1, 0.1][:count])
            for kind_b in (None, AUDIT_PARTNER[kind])]


@pytest.fixture
def packed(monkeypatch):
    """What the Python walk packed: per template ``(last, top, fails,
    bads)`` from ``_packed_levels`` (the masks bit r for the r-th
    assignment of the packed levels)."""
    seen = {"levels": []}
    levels = pykern._packed_levels

    def spy_levels(checks_a, checks_b, filed, depth_of, p):
        out = levels(checks_a, checks_b, filed, depth_of, p)
        seen["levels"].append((filed[-1] if filed else -1, *out))
        return out

    monkeypatch.setattr(pykern, "_packed_levels", spy_levels)
    return seen


@pytest.fixture
def no_floor(monkeypatch):
    """Templates small enough for the brute-force reference pack only
    without the node floor: every run with a survivor is packed."""
    monkeypatch.setattr(pykern, "PACK_NODES", 1)


class TestPackedLevels:
    """The Python walk evaluates its shallow levels over every assignment
    at once, as packed vectors, and resumes the scalar walk below each
    survivor: its counts, hits and samples are the unpruned reference's,
    whatever the stop constants say."""

    @pytest.mark.parametrize("kind, n, p", [
        (kind, n, p) for kind in sorted(pykern.KINDS) for n in (1, 2)
        for p in (2, 3, 5, 7)] + [
        (kind, 3, 2) for kind in sorted(pykern.KINDS)] + [
        (kind, 1, 17) for kind in sorted(pykern.KINDS)])
    @pytest.mark.parametrize("floor", ["default", "none"])
    def test_sweep_and_audit_match_brute_force(self, request, packed, floor,
                                               kind, n, p):
        if floor == "none":
            request.getfixturevalue("no_floor")
        found = 0
        for case in packed_cases(kind, n, p):
            count, hits, first = want = brute_scan(*case)
            assert pykern._scan(*case) == want, case
            kind_a, kind_b, n, p, fixed, cap = case
            if kind_b is None:
                assert pykern.sweep(kind_a, n, p, fixed, cap) == \
                    (count, first)
            else:
                assert pykern.audit(kind_a, kind_b, n, p, fixed) == \
                    (count, hits, first[0] if first else None)
            found += count
        assert found
        tops = [top for _, top, _, _ in packed["levels"]]
        if p not in pykern._PLANE_BITS:  # GF(p >= 5) walks scalar
            assert tops and max(tops) == 0
        elif n > 1 and floor == "none":
            assert max(tops) >= 2

    @pytest.mark.parametrize("setting", ["no level", "every level"])
    def test_stop_constants_change_no_stream(self, monkeypatch, packed,
                                             setting):
        al = pykern.layout("hom-prelie", 2)[2]
        cases = [case for kind in sorted(pykern.KINDS)
                 for case in packed_cases(kind, 2, 3, 1)]
        cases += [("hom-prelie", kind_b, 2, 3, [-1] * al + [1, 1, 0, 1], 9)
                  for kind_b in (None, "hom-algebra")]
        want = [pykern._scan(*case) for case in cases]
        packed["levels"].clear()
        if setting == "no level":
            monkeypatch.setattr(pykern, "PACK_BYTES", 0)
        else:
            monkeypatch.setattr(pykern, "PACK_BYTES", 3 ** 9)
            monkeypatch.setattr(pykern, "PACK_NODES", 0)
        assert [pykern._scan(*case) for case in cases] == want
        for last, top, fails, _ in packed["levels"]:
            if setting == "no level":
                assert top == 0
            else:
                assert top == last + 1

    def test_a_packed_level_that_kills_every_assignment(self, packed,
                                                        no_floor):
        case = ("hom-algebra", None, 2, 3,
                [2, -1, -1, 0, -1, 1, -1, -1, 1, 2, 2, 1], 5)
        assert pykern._scan(*case) == brute_scan(*case) == (0, 0, [])
        (last, top, fails, _), = packed["levels"]
        assert 2 <= top <= last and fails == (1 << 3 ** top) - 1

    def test_an_audit_whose_kind_b_fails_in_the_packed_levels(self, packed,
                                                              no_floor):
        case = ("hom-leibniz", "hom-prelie", 2, 2,
                [0, -1, -1, -1, 0, -1, -1, 0, 0, 1, 1, 1], 5)
        count, hits, first = brute_scan(*case)
        assert 0 < hits < count
        assert pykern._scan(*case) == (count, hits, first)
        (_, top, fails, bads), = packed["levels"]
        alive = (1 << 2 ** top) - 1 ^ fails
        assert top >= 2
        assert alive & bads and alive & ~bads

    def test_runs_too_small_to_pay_stay_scalar(self, packed):
        # the Jordan twist over GF(3): hom-algebra files identities from
        # depth 1, where the scalar walk checks 9 assignments, and
        # hom-prelie files none before depth 6, where it checks 2,187
        al = pykern.layout("hom-algebra", 2)[2]
        for kind in ("hom-algebra", "hom-prelie"):
            pykern._scan(kind, None, 2, 3, [-1] * al + [1, 1, 0, 1], 1)
        (_, top, _, _), (last, deep, _, _) = packed["levels"]
        assert top == 0 and deep == last + 1

    def test_the_byte_cap_holds_every_gf2_two_product_level(self, packed):
        # the GF(2) hlsda space with the Jordan twist files identities
        # down to depth 15: its 2^16 assignments fill one 8 KB plane, so
        # every filed level packs and no scalar walk runs below them
        al = pykern.layout("hlsda", 2)[2]
        case = ("hlsda", None, 2, 2, [-1] * al + [1, 1, 0, 1], 1)
        assert pykern._scan(*case) == (46, 46, [(0,) * al + (1, 1, 0, 1)])
        (last, top, _, _), = packed["levels"]
        assert top == last + 1 == al
        assert 2 ** top // 8 == pykern.PACK_BYTES

    def test_the_byte_cap_counts_both_gf3_planes(self, packed):
        # the GF(3) hlsda space with the Jordan twist files its first
        # identity at depth 9: its 3^10 assignments take 14.8 KB in two
        # planes, past the cap (one plane would fit), so nothing packs
        al = pykern.layout("hlsda", 2)[2]
        pykern._scan("hlsda", None, 2, 3, [-1] * al + [1, 1, 0, 1], 1)
        (last, top, _, _), = packed["levels"]
        assert top == 0 and last == 15
        assert 3 ** 10 // 8 <= pykern.PACK_BYTES < 2 * 3 ** 10 // 8

    def test_the_walk_resumes_below_the_byte_cap(self, packed):
        # 17 free product slots of a dim-3 GF(2) hom-leibniz template with
        # a 3-cycle twist: identities are filed down to depth 16, one past
        # the 16 levels 8 KB hold, so the scalar walk resumes below the
        # survivors of 16 packed levels
        al = pykern.layout("hom-leibniz", 3)[2]
        fixed = [-1] * 17 + [0] * (al - 17) + [0, 1, 0, 0, 0, 1, 1, 0, 0]
        case = ("hom-leibniz", "hom-prelie", 3, 2, fixed, 3)
        count, hits, first = want = brute_scan(*case)
        assert 0 < hits < count and len(first) == 3
        assert pykern._scan(*case) == want
        assert pykern._scan("hom-leibniz", None, 3, 2, fixed, 0) == \
            (count, count, [])
        (last, top, fails, _), _ = packed["levels"]
        assert top == 16 == last
        assert fails != (1 << 2 ** top) - 1  # some assignment survives

    @pytest.mark.parametrize("p, level", [(2, 4), (3, 3)])
    def test_plane_vectors_hold_the_slot_values(self, p, level):
        # position i of the planes at a level: the assignment whose value
        # at depth d is digit d of i, depth 0 least significant, one bit
        # per value 1, .., p - 1; over GF(3), product planes (c, a, b)
        # hold c times the product of the values at depths a and b
        rows = [row[::-1] for row in
                itertools.product(range(p), repeat=level + 1)]

        def values(planes):
            return [sum(x * (mask >> i & 1) for x, mask in enumerate(planes, 1))
                    for i in range(len(rows))]

        columns = pykern._columns(p, level)
        assert len(columns) == level + 2
        for d in range(level + 1):
            assert values(columns[d]) == [row[d] for row in rows]
        assert values(columns[-1]) == [1] * len(rows)
        if p == 3:
            planes = pykern._Planes(level)
            depths = range(level + 1)
            for (a, b), c in itertools.product(
                    [(-1, -1), *((a, -1) for a in depths),
                     *itertools.combinations_with_replacement(depths, 2)],
                    (1, 2)):
                assert values(planes[c, a, b]) == [
                    c * (1 if a < 0 else row[a]) * (1 if b < 0 else row[b])
                    % 3 for row in rows]

    @pytest.mark.parametrize("p, top", [(2, 1), (2, 4), (2, 5), (3, 3),
                                        (3, 4)])
    def test_masks_come_back_in_lexicographic_order(self, p, top):
        # bit i of a plane mask is the assignment with digit d of i at
        # depth d; ``_lex`` moves it to its rank in lexicographic order
        rng = random.Random(f"{p}:{top}")
        mask = rng.getrandbits(p ** top)
        rank = {row: r for r, row in enumerate(
            itertools.product(range(p), repeat=top))}
        want = sum(1 << rank[tuple(i // p ** d % p for d in range(top))]
                   for i in range(p ** top) if mask >> i & 1)
        assert pykern._lex(mask, p, top) == want


def test_gf3_plane_arithmetic_is_exact():
    """Every pair of residues mod 3 at once: positions 0..8 of the planes
    at level 1 hold x = i mod 3 at depth 0 and y = i // 3 at depth 1; the
    sum, the product and each coefficient's product planes hold x + y,
    x y and c x y mod 3 at each of them."""
    x, y = pykern._columns(3, 1)[:2]

    def residues(planes):
        return [(planes[0] >> i & 1) + 2 * (planes[1] >> i & 1)
                for i in range(9)]

    pairs = [(i % 3, i // 3) for i in range(9)]
    assert residues(x) == [a for a, _ in pairs]
    assert residues(y) == [b for _, b in pairs]
    assert residues(pykern._add3(x, y)) == [(a + b) % 3 for a, b in pairs]
    assert residues(pykern._mul3(x, y)) == [a * b % 3 for a, b in pairs]
    planes = pykern._Planes(1)
    for c in (1, 2):
        assert residues(planes[c, 0, 1]) == [c * a * b % 3 for a, b in pairs]


# 4294967311 is the least prime above 2^32, where only pykern is exact
SPECIALISE_PRIMES = (2, 3, 7, 4294967291, 4294967311)


def det(rows):
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for row, col in enumerate(perm):
            term *= rows[row][col]
        total += term
    return total


def random_twist(rng, n, p, rank):
    """A flat n x n twist over GF(p): "zero", "singular" (zero at n = 1)
    or "invertible"."""
    if rank == "zero" or (rank == "singular" and n == 1):
        return [0] * (n * n)
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank == "singular":
            c = rng.randrange(p)
            rows[-1] = [c * x % p for x in rows[0]]
        if (det(rows) % p == 0) == (rank == "singular"):
            return [x for row in rows for x in row]


def specialise_template(rng, kind, n, p, rank, unit, share=0.4):
    """The twist pinned to a ``rank`` twist, the product slots of the
    ``require_unit`` prefill pinned when ``unit``, and about ``share`` of
    the other product slots pinned, half of those to zero."""
    total, _, al = pykern.layout(kind, n)
    if unit:  # entries 0 and 1 are residues mod every p
        spec = SearchSpec(kind, n, 2, require_unit=True,
                          fixed={"alpha": [[0] * n] * n})
        fixed = search._flat_template(spec, "compiled")[0]
    else:
        fixed = [-1] * total
    for slot in range(al):
        if fixed[slot] < 0 and rng.random() < share:
            fixed[slot] = rng.randrange(p) if rng.random() < 0.5 else 0
    fixed[al:] = random_twist(rng, n, p, rank)
    return fixed


def depths(fixed):
    """Per slot, and for the constant-1 slot after them: the slot's
    position among the free slots, or -1."""
    depth_of = [-1] * (len(fixed) + 1)
    for d, slot in enumerate(s for s, x in enumerate(fixed) if x < 0):
        depth_of[slot] = d
    return depth_of


def program(kind, n, p, fixed):
    """The specialisation program of ``fixed``'s product pins."""
    return pykern._program(kind, n, p,
                           tuple(fixed[:pykern.layout(kind, n)[2]]))


def staged(kind, n, p, fixed):
    """``_reduced`` on ``fixed`` (its twist pinned): per identity of the
    expansion, None or its (depth, terms)."""
    v = [max(x, 0) for x in fixed] + [1]
    return list(pykern._reduced(program(kind, n, p, fixed), v, p))


def brute_reduced(poly, fixed, p):
    """One identity of the expansion on ``fixed`` (its twist pinned) by
    brute force: the pinned slots multiplied into each monomial, each
    keyed by its free slots padded with the constant-1 slot, and equal
    keys combined mod p; zero coefficients are left out."""
    w = [*fixed, 1]
    terms = {}
    for c, *slots in poly:
        free = [s for s in slots if w[s] < 0]
        for s in slots:
            c *= w[s] if w[s] >= 0 else 1
        key = tuple((free + [len(fixed)] * 2)[:2])
        terms[key] = terms.get(key, 0) + c
    return {key: c % p for key, c in terms.items() if c % p}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(pykern.KINDS))
def test_specialised_identities_are_the_residuals(kind, n):
    """Each identity of the cached expansion, specialised to a template
    by the staged program, has the identity's residual mod p at random
    completions, reads only free slots (and the constant-1 slot,
    ``len(fixed)``), and is filed at the deepest of them; one that
    vanishes has residual 0 there."""
    polys = pykern._expansion(kind, n)
    for p in SPECIALISE_PRIMES:
        rng = random.Random(f"{kind}:{n}:{p}")
        sample = rng.sample(range(len(polys)), min(len(polys), 24))
        for rank, unit in itertools.product(
                ("zero", "singular", "invertible"), (False, True)):
            fixed = specialise_template(rng, kind, n, p, rank, unit)
            depth_of = depths(fixed)
            filed = staged(kind, n, p, fixed)
            assert len(filed) == len(polys)
            for i in sample:
                poly = polys[i]
                depth, reduced = filed[i] or (None, ())
                reads = {s for _, x, y in reduced for s in (x, y)}
                reads.discard(len(fixed))
                assert all(fixed[s] < 0 for s in reads)
                assert all(0 < c < p for c, _, _ in reduced)
                if reduced:
                    assert depth == max((depth_of[s] for s in reads),
                                        default=-1)
                for _ in range(3):
                    v = [rng.randrange(p) if x < 0 else x for x in fixed]
                    v.append(1)
                    assert sum(c * v[x] * v[y] for c, x, y in reduced) % p \
                        == sum(c * v[x] * v[y] * v[z]
                               for c, x, y, z in poly) % p


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(pykern.KINDS)), st.integers(1, 3),
       st.sampled_from([2, 3, 5, 7, 4294967291]),
       st.sampled_from(["zero", "singular", "invertible"]), st.booleans(),
       st.sampled_from([0, 0.4, 1]), st.integers(0, 2 ** 32))
def test_staged_filing_is_the_brute_force_residuals(kind, n, p, rank, unit,
                                                    share, seed):
    """On random templates, with no product pin, some or all, and with or
    without the unit prefill: each identity the staged program files is
    the brute-force residual mod p, at the depth of the deepest free slot
    it reads, and ``_filed`` holds each of them at that depth. Over
    GF(4294967291) a packed field is 9 bytes wide from dimension 2 on."""
    rng = random.Random(seed)
    fixed = specialise_template(rng, kind, n, p, rank, unit, share)
    depth_of = depths(fixed)
    want = []
    for poly in pykern._expansion(kind, n):
        terms = brute_reduced(poly, fixed, p)
        want.append(terms and (max(depth_of[s] for key in terms
                                   for s in key), terms))
    got = staged(kind, n, p, fixed)
    assert [(depth, {tuple(sorted(key)): c for c, *key in terms})
             if terms else {}
             for depth, terms in [g or (None, ()) for g in got]] == want
    v = [max(x, 0) for x in fixed] + [1]
    checks = pykern._filed(program(kind, n, p, fixed), v, p)
    assert len(checks) == sum(x < 0 for x in fixed) + 1
    assert sorted((d, sorted((c, *sorted(key)) for c, *key in terms))
                  for d, polys in enumerate(checks) for terms in polys) == \
        sorted((d % len(checks), sorted((c, *key) for key, c in terms.items()))
               for d, terms in filter(None, want))
    if p == 4294967291 and n > 1:  # a field sums 4 or more products
        assert program(kind, n, p, fixed).width == 9


def test_a_sweep_over_every_twist_keys_no_cache_by_the_twist():
    """The 81 twists of the dim-2 GF(3) hom-algebra space, each pinned in
    its own sweep: each twist is specialised afresh, so no cache grows by
    more than one entry, but those keyed by packed level, by at most one
    per level."""
    caches = {name: f for name, f in vars(pykern).items()
              if hasattr(f, "cache_clear")}
    for f in caches.values():
        f.cache_clear()
    al = pykern.layout("hom-algebra", 2)[2]
    for twist in twists(2, 3):
        pykern.sweep("hom-algebra", 2, 3, [-1] * al + twist, 0)
    for name, f in caches.items():
        by_level = name in ("_columns", "_planes", "_reversal")
        assert f.cache_info().currsize <= (al if by_level else 1), name


@pytest.mark.parametrize("kind, p, fixed", [
    # twist [[1, 1], [0, 2]]: the last free slot cancels mod 3 only
    ("hom-prelie", 3, [2, 0, 0, -1, -1, 0, 0, -1, 1, 1, 0, 2]),
    # twist [[0, 1], [0, 1]]: the last free slot cancels mod 2 only
    ("hom-prelie", 2, [0, 0, -1, -1, -1, 0, 0, -1, 0, 1, 0, 1]),
])
def test_slots_that_cancel_mod_p_join_the_tail(compiled, kind, p, fixed):
    def last(q):  # the deepest depth an identity is filed at over GF(q)
        return max(depth for depth, _ in filter(None,
                                                staged(kind, 2, q, fixed)))

    assert last(p) < last(4294967291)
    free = [slot for slot, x in enumerate(fixed) if x < 0]
    # every survivor of the walk shares the tail past the deepest depth
    # that _frontier files an identity at
    deepest = pykern._frontier(kind, None, 2, p, fixed)[4]
    assert free[deepest + 1:] == free[last(p) + 1:] != []
    want = brute_sweep(kind, 2, p, fixed, 1 << 20)
    assert want[0] > 0
    assert pykern.sweep(kind, 2, p, fixed, 1 << 20) == want
    assert compiled.sweep(kind, 2, p, fixed, 1 << 20) == want


def twists(n, p, invertible=False):
    """Every flat n x n twist over GF(p), or every invertible one."""
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        if not invertible or det(rows) % p:
            yield list(flat)


@pytest.mark.parametrize("kind, p", [
    ("hom-algebra", 3), ("hom-leibniz", 3), ("hom-prelie", 3),
    ("hom-dialgebra", 2), ("hlsda", 2)])
def test_kernels_agree_on_the_search_shapes(compiled, kind, p):
    """The search workload's sweeps: dimension 2, every invertible twist
    pinned, everything else free."""
    al = pykern.layout(kind, 2)[2]
    for twist in twists(2, p, invertible=True):
        fixed = [-1] * al + twist
        assert pykern.sweep(kind, 2, p, fixed, 16) == \
            compiled.sweep(kind, 2, p, fixed, 16), twist


# the audit pairs each kind's templates run in
PARTNERS = {"hom-algebra": "hom-prelie", "hom-prelie": "hom-algebra",
            "hom-dialgebra": "hlsda", "hlsda": "hom-dialgebra"}


def walks_past(kind_a, kind_b, n, p, fixed):
    """Does the walk on ``fixed`` (its twist pinned) set a free slot that
    an identity reads? Over GF(4294967291) it would try every residue."""
    front = pykern._frontier(kind_a, kind_b, n, p, fixed)
    return front is not None and front[4] >= 0


def lifted(rng, kind, n, p):
    """A candidate over GF(p) that passes ``kind`` (and its audit
    partner), its entries spread over the field: a structure over the
    integers twisted by a diagonal endomorphism diag(lam) (Yau's twist:
    each product followed by it), then moved by a random invertible g,
    mu'(x, y) = g mu(g^-1 x, g^-1 y) and alpha' = g alpha g^-1. For
    hom-leibniz it is e_0 e_0 = e_1, whose triple products all vanish, so
    that any lam serves; for the other kinds, the idempotents
    e_i e_i = e_i in every product, with lam in {0, 1}."""
    if kind == "hom-leibniz":
        mu = {(0, 0, 1): 1} if n > 1 else {}
        lam = [rng.randrange(p) for _ in range(n)]
    else:
        mu = {(i, i, i): 1 for i in range(n)}
        lam = [rng.randrange(2) for _ in range(n)]
    flat = random_twist(rng, n, p, "invertible")
    g = [flat[i * n:(i + 1) * n] for i in range(n)]
    h = search._inverse(g, p)
    product = [sum(g[k][c] * lam[c] * m * h[a][i] * h[b][j]
                   for (a, b, c), m in mu.items()) % p
               for i, j, k in itertools.product(range(n), repeat=3)]
    return product * pykern.KINDS[kind] + [
        sum(g[r][c] * lam[c] * h[c][s] for c in range(n)) % p
        for r in range(n) for s in range(n)]


@pytest.mark.parametrize("n, primes", [(1, (2, 3, 7)), (2, (2, 3)), (3, (2,))])
@pytest.mark.parametrize("kind", sorted(pykern.KINDS))
def test_kernels_agree_on_specialised_templates(compiled, ckern, kind, n,
                                                primes):
    """The two sweeps, and the two audits of the kind's audit pair, on
    ``specialise_template``'s templates: a zero, singular or invertible
    twist, with and without the unit prefill. A template past the search
    API's compiled budget is left out: the Python walk may take seconds
    there. Over GF(4294967291), where stage 2 sums products of residues
    near 2^64 in C, every product slot is pinned, or all but one, and a
    template whose walk would set that slot is left out. Three
    ``lifted`` candidates, which pass, join them there, so that those
    sums must cancel exactly; each is also scanned in C on the program
    with its own pins folded in, which a template with no free slot
    skips."""
    partner, big = PARTNERS.get(kind), 4294967291
    for p in (*primes, big):
        rng = random.Random(f"{kind}:{n}:{p}")
        templates = [specialise_template(rng, kind, n, p, rank, unit,
                                         1 if p == big else 0.4)
                     for rank, unit in itertools.product(
                         ("zero", "singular", "invertible"), (False, True))]
        if p == big:
            passing = [lifted(rng, kind, n, p) for _ in range(3)]
            for flat, other in itertools.product(passing, {None, partner}):
                program = pykern._flat_program(
                    kind, other, n, p, tuple(flat[:pykern.layout(kind, n)[2]]))
                want = (1, 1, [tuple(flat)]) if other is None else (1, 0, [])
                assert ckern.scan(program, p, array("q", flat), 1) == want
                assert pykern._scan(kind, other, n, p, flat, 1) == want
            templates += passing
            for fixed in list(templates):  # each with a product slot freed
                fixed = list(fixed)
                fixed[rng.randrange(pykern.layout(kind, n)[2])] = -1
                templates.append(fixed)
        for fixed in templates:
            if p == big and walks_past(kind, partner, n, p, fixed):
                continue
            if p ** sum(x < 0 for x in fixed) <= search.RAW_CANDIDATE_BUDGET:
                assert compiled.sweep(kind, n, p, fixed, 16) == \
                    pykern.sweep(kind, n, p, fixed, 16), fixed
                if partner:
                    assert compiled.audit(kind, partner, n, p, fixed) == \
                        pykern.audit(kind, partner, n, p, fixed), fixed


@pytest.mark.parametrize("entry, value", [
    ("slot", 3), ("slot", 2 ** 40), ("slot", -1), ("slot", -2 ** 40),
    ("count", -1), ("count", 2 ** 40), ("kind b", -1),
    ("kind b", "past the end"), ("twist", 0), ("bound", -1),
    ("bound", "past the end")])
def test_compiled_scan_refuses_a_malformed_table(ckern, entry, value):
    """``_ckern.scan`` reads slots, counts and bounds from the program
    (``pykern._flat_program``), so it checks them before reading: a slot
    outside 0 .. total (the constant-1 slot), a twist monomial on a slot
    the template leaves free, a coefficient count that overruns the
    program, a first identity of kind b outside the identities and a
    bound outside the positions are refused."""
    program = list(pykern._flat_program("hom-algebra", None, 1, 3, (-1,)))
    fixed, p = array("q", [-1, 0]), 3
    assert ckern.scan(array("q", program), p, fixed, 5) == \
        (3, 3, [(0, 0), (1, 0), (2, 0)])
    # program[:3]: the numbers of positions and identities, and kind b's
    # first identity; then the identities' bounds, the positions' slots
    # x, then y, and the first twist monomial's slot pair and count
    positions, ids = program[:2]
    pairs = 4 + ids + 2 * positions
    at = {"kind b": 2, "bound": 4, "slot": 4 + ids, "twist": pairs,
          "count": pairs + 2}[entry]
    past = {"kind b": ids + 1, "bound": positions + 1}
    program[at] = past[entry] if value == "past the end" else value
    with pytest.raises(ValueError, match="program"):
        ckern.scan(array("q", program), p, fixed, 5)


def test_one_sample_of_a_huge_field_builds_nothing_up_front():
    """The samples of a free tail come by index: one sample of the
    twist-pinned dim-1 GF(1000003) hom-prelie space, whose only slot is a
    free tail slot, needs no list of the field's residues."""
    tracemalloc.start()
    try:
        assert pykern.sweep("hom-prelie", 1, 1000003, [-1, 1], 1) == \
            (1000003, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestCountsWithinReach:
    """Counts the pruned walk makes cheap on the Python kernel."""

    @pytest.fixture
    def kernel(self):
        return pykern

    def test_unital_dim3_gf2_hom_algebras(self, kernel):
        spec = SearchSpec("hom-algebra", 3, 2, require_unit=True, cap=0)
        assert enumerate_structures(spec, kernel=kernel.NAME).count == 4268

    def test_dim2_gf3_hom_algebras_over_every_twist(self, kernel):
        # the per-twist counts behind the 2-hom-associative count
        counts = [kernel.sweep("hom-algebra", 2, 3, [-1] * 8 + twist, 0)[0]
                  for twist in twists(2, 3)]
        assert len(counts) == 81 and sum(counts) == 7305

    @pytest.mark.parametrize("kind, count", [("hom-dialgebra", 15),
                                             ("hlsda", 207)])
    def test_twist_pinned_gf3_dim2(self, kernel, kind, count):
        # 3^16 candidates, past the Python budget of the search API
        total, _, al = pykern.layout(kind, 2)
        fixed = [-1] * al + [1, 1, 0, 1]
        got, samples = kernel.sweep(kind, 2, 3, fixed, 4)
        assert got == count
        for flat in samples:
            assert hs.run_check(kind,
                                structure_from_flat(kind, flat, 2, 3)).passed


class TestCompiledCountsWithinReach(TestCountsWithinReach):
    """The same counts on the compiled kernel, built from source."""

    @pytest.fixture
    def kernel(self, compiled):
        return compiled
