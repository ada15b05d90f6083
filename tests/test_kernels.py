"""Parity and correctness of the two search kernels.

Both kernels evaluate pykern's one identity table (contraction loops over
flat arrays rather than the vector-calculus evaluators) and walk it the
same way, pykern's in Python and the compiled one in C. The table is
checked against the exact checkers, each walk against an unpruned
reference that decides every candidate with pykern's ``passes``, and the
C term evaluator against pykern's helpers.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import homstruct as hs
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


class TestCountsWithinReach:
    """Counts the pruned walk makes cheap on the Python kernel."""

    @pytest.fixture
    def kernel(self):
        return pykern

    def test_unital_dim3_gf2_hom_algebras(self, kernel):
        spec = SearchSpec("hom-algebra", 3, 2, require_unit=True, cap=0)
        assert enumerate_structures(spec, kernel=kernel.NAME).count == 4268

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
