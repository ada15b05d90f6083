"""Parity and correctness of the two search kernels.

The pure-Python kernel is an independent implementation of the mod-p
axiom systems (contraction loops over flat arrays rather than the
vector-calculus evaluators), so agreement between the kernels and the
exact checkers is a three-way cross-check.
"""

import pytest
from hypothesis import given, settings, strategies as st

import homstruct as hs
from homstruct._kernels import available, get_kernel, pykern
from homstruct.fields import PrimeField
from homstruct.search import structure_from_flat

needs_compiled = pytest.mark.skipif("compiled" not in available(),
                                    reason="compiled kernel not built")

CHECKERS = {
    "hom-algebra": hs.check_hom_algebra,
    "hom-leibniz": hs.check_hom_leibniz,
    "hom-prelie": hs.check_hom_prelie,
    "hom-dialgebra": hs.check_dialgebra,
    "hlsda": hs.check_hlsda,
}


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
    checker_says = CHECKERS[kind](structure).passed
    assert kernel_says == checker_says


def test_kernel_checker_agreement_in_dimension_three():
    import random
    rng = random.Random(42)
    for kind in sorted(pykern.KINDS):
        total, _, _ = pykern.layout(kind, 3)
        for _ in range(15):
            flat = [rng.randrange(5) for _ in range(total)]
            structure = structure_from_flat(kind, flat, 3, 5)
            assert pykern.passes(kind, flat, 3, 5) == \
                CHECKERS[kind](structure).passed


@needs_compiled
@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(pykern.KINDS)),
       st.sampled_from([2, 3, 5, 4294967291]), st.data())
def test_kernels_agree_on_random_candidates(kind, p, data):
    n = 2
    flat = data.draw(flat_candidates(kind, n, p))
    compiled = get_kernel("compiled")
    assert pykern.passes(kind, flat, n, p) == compiled.passes(kind, flat, n, p)


def test_candidate_order_is_lexicographic():
    fixed = [-1, 0, -1]  # middle slot pinned
    seen = [tuple(v) for v in pykern._candidates(fixed, 3)]
    assert seen == [(a, 0, b) for a in range(3) for b in range(3)]


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
        assert hs.check_hom_leibniz(leibniz2dim).passed
        gf = PrimeField(2)
        broken = hs.HomLeibniz(
            hs.ProductTensor(gf, (((0, 1), (1, 0)), ((0, 0), (0, 1)))),
            hs.identity_map(gf, 2))
        assert self.classical_leibniz_holds(broken) == \
            hs.check_hom_leibniz(broken).passed

    def test_dialgebra_reduction_on_classical_fixture(self, ut2):
        from homstruct.constructions import dialgebra_from_differential
        d = dialgebra_from_differential(ut2)
        assert d.alpha.is_identity()
        # with the identity twist the strict and twisted readings agree
        assert hs.check_dialgebra(d).passed
        assert hs.check_dialgebra(d, strict_assoc=True).passed
