import dataclasses
import functools
import itertools
import random
from operator import mul

import pytest

import homstruct as hs
from homstruct import _kernels, search
from homstruct._kernels import (available, compiled_is_exact, get_kernel,
                                kernel_for, pykern)
from homstruct.errors import (BudgetExceededError, FieldError,
                              FieldMismatchError, ScalarParseError,
                              ShapeError)
from homstruct.fields import PrimeField
from homstruct.structures import KINDS
from homstruct.search import (AuditResult, SearchSpec, audit_inclusion,
                              enumerate_structures, find_morphisms,
                              group_by_isomorphism, structure_from_flat)


@pytest.fixture(params=["python", "compiled"])
def kernel(request):
    """Each kernel's name; the compiled kernel is built from source."""
    if request.param == "compiled":
        request.getfixturevalue("compiled")
    return request.param


ONE_PRODUCT_KINDS = [kind for kind, products in pykern.KINDS.items()
                     if products == 1]


class TestCounts:
    def test_dim1_gf2_all_four_pass(self, kernel):
        r = enumerate_structures(SearchSpec("hom-algebra", 1, 2, cap=10),
                                 kernel=kernel)
        assert r.count == 4
        assert len(r.structures) == 4

    def test_dim1_gf3_count_is_seven(self, kernel):
        # nine raw candidates minus the two with a nontrivial product and
        # a twist of residue 2 (where scaling and squaring disagree)
        r = enumerate_structures(SearchSpec("hom-algebra", 1, 3, cap=10),
                                 kernel=kernel)
        assert r.count == 7

    def test_dim1_gf3_failures_are_exactly_the_hand_count(self):
        passing = {(s.mu.c[0][0][0], s.alpha.rows[0][0])
                   for s in enumerate_structures(
                       SearchSpec("hom-algebra", 1, 3, cap=10)).structures}
        assert passing == {(c, t) for c in range(3) for t in range(3)
                           if (c, t) not in ((1, 2), (2, 2))}

    def test_negative_cap_refused(self, kernel):
        # a cap of 0 counts without materializing; below 0 is an error,
        # not a cap of 0
        spec = SearchSpec("hom-algebra", 1, 2, cap=0)
        assert enumerate_structures(spec, kernel=kernel).count == 4
        with pytest.raises(ValueError, match="cap must be non-negative"):
            enumerate_structures(SearchSpec("hom-algebra", 1, 2, cap=-1),
                                 kernel=kernel)


class TestStreams:
    def test_deterministic_across_runs(self):
        spec = SearchSpec("hom-leibniz", 2, 2, cap=4096)
        first = enumerate_structures(spec)
        second = enumerate_structures(spec)
        assert first.count == second.count
        assert [s.bracket.c for s in first.structures] == \
            [s.bracket.c for s in second.structures]

    @pytest.mark.parametrize("kind, n, p, pinned_twist", [
        ("hom-algebra", 1, 5, None),
        # one-product kinds: the full GF(2) space, and GF(3) with the twist
        # pinned; two-product kinds over GF(2) with the twist pinned (2^16
        # candidates, so that the python kernel stays quick)
        *((kind, 2, 2, None) for kind in ONE_PRODUCT_KINDS),
        *((kind, 2, 3, [[1, 1], [0, 1]]) for kind in ONE_PRODUCT_KINDS),
        ("hom-dialgebra", 2, 2, [[1, 1], [0, 1]]),
        ("hlsda", 2, 2, [[0, 1], [1, 0]]),
    ])
    def test_kernels_agree_on_streams(self, compiled, kind, n, p,
                                      pinned_twist):
        total, _, al = pykern.layout(kind, n)
        fixed = [-1] * total
        if pinned_twist:
            fixed[al:] = [x for row in pinned_twist for x in row]
        py = get_kernel("python").sweep(kind, n, p, fixed, 1 << 16)
        assert py[0] > 0
        assert py == get_kernel("compiled").sweep(kind, n, p, fixed, 1 << 16)

    def test_soundness_every_emitted_structure_repasses(self):
        for kind in ("hom-algebra", "hom-leibniz", "hom-prelie"):
            r = enumerate_structures(SearchSpec(kind, 2, 2, cap=64))
            assert r.structures
            for s in r.structures:
                assert hs.run_check(kind, s).passed, kind

    def test_opposite_closure_of_the_full_gf2_run(self):
        from homstruct.constructions import opposite
        r = enumerate_structures(SearchSpec("hom-algebra", 2, 2, cap=1 << 13))
        assert r.count == len(r.structures)
        emitted = {(s.mu.c, s.alpha.rows) for s in r.structures}
        for s in r.structures:
            assert (opposite(s.mu).c, s.alpha.rows) in emitted


class TestSpecHandling:
    def test_budget_rejects_oversized_spaces(self):
        with pytest.raises(BudgetExceededError):
            enumerate_structures(SearchSpec("hom-dialgebra", 3, 5))

    def test_python_budget_refuses_before_sweeping(self, monkeypatch):
        # 5^12 hom-algebra candidates at dim 2: inside the compiled
        # kernel's budget of 2^32, past the python kernel's 2^24
        def never(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(pykern, "sweep", never)
        monkeypatch.setattr(pykern, "audit", never)
        spec = SearchSpec("hom-algebra", 2, 5)
        with pytest.raises(BudgetExceededError, match="python kernel"):
            enumerate_structures(spec, kernel="python")
        with pytest.raises(BudgetExceededError, match="python kernel"):
            audit_inclusion("hom-dialgebra", "hlsda", 2, 3, kernel="python")

        class Compiled:
            NAME = "compiled"
            sweep = staticmethod(lambda *args: (0, []))

        monkeypatch.setattr(_kernels, "_compiled", Compiled)
        assert enumerate_structures(spec, kernel="compiled").count == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            enumerate_structures(SearchSpec("hopf", 1, 2))

    def test_require_unit_prefills_and_holds(self):
        r = enumerate_structures(SearchSpec("hom-algebra", 2, 2,
                                            require_unit=True, cap=256))
        assert r.structures
        for s in r.structures:
            assert s.unit is not None
            # includes the unit law
            assert hs.run_check("hom-algebra", s).passed

    def test_fixed_entries_conflict_detected(self):
        from homstruct.errors import ShapeError
        # the unit prefill pins mu(e1, e1) = e1, so pinning that slot to 0
        # contradicts it
        fixed_mu = [[[0, None], [None, None]], [[None, None], [None, None]]]
        with pytest.raises(ShapeError):
            enumerate_structures(SearchSpec("hom-algebra", 2, 2,
                                            fixed={"mu": fixed_mu},
                                            require_unit=True))

    @pytest.mark.parametrize("kind, section, array, shape", [
        ("hom-algebra", "mu", [[[0, 0], [0, 0]]], "2x2x2"),
        ("hlsda", "mu2", [[[0, 0], [0, 0]], [[0, 0], [0]]], "2x2x2"),
        ("hom-algebra", "alpha", [[1, 0], [0, 1, 0]], "2x2"),
        ("hom-algebra", "alpha", [[1, 0], [0, [1]]], "2x2"),
        ("hom-dialgebra", "alpha", [[1, 0], "01"], "2x2"),
    ], ids=["mu-outer", "mu2-inner", "alpha-inner", "alpha-list-entry",
            "alpha-string-row"])
    def test_misshapen_pins_rejected(self, kind, section, array, shape):
        with pytest.raises(ShapeError, match=f"^pinned section '{section}' "
                           f"must be a {shape} nested list$"):
            enumerate_structures(SearchSpec(kind, 2, 2,
                                            fixed={section: array}))

    def test_fixed_entries_respected(self):
        fixed_alpha = [[1, 0], [0, 1]]
        r = enumerate_structures(SearchSpec("hom-algebra", 2, 2,
                                            fixed={"alpha": fixed_alpha},
                                            cap=2048))
        for s in r.structures:
            assert s.alpha.is_identity()


class TestAudit:
    def test_dialgebra_always_left_disymmetric_on_subspace(self, kernel):
        # full sweep is exercised in the acceptance suite; pin the twist to
        # the identity here to keep the python kernel fast
        fixed = [-1] * pykern.layout("hom-dialgebra", 2)[0]
        _, _, al = pykern.layout("hom-dialgebra", 2)
        for i in range(2):
            for j in range(2):
                fixed[al + i * 2 + j] = 1 if i == j else 0
        kern = get_kernel(kernel)
        count, violations, example = kern.audit("hom-dialgebra", "hlsda",
                                                2, 2, fixed)
        assert violations == 0 and example is None
        assert count > 0

    def test_left_disymmetric_not_dialgebra_example_found(self):
        res = audit_inclusion("hlsda", "hom-dialgebra", 2, 2)
        assert isinstance(res, AuditResult)
        assert res.violations >= 1
        assert hs.run_check("hlsda", res.example).passed
        assert not hs.run_check("hom-dialgebra", 
            hs.HomDialgebra(res.example.left, res.example.right,
                            res.example.alpha)).passed

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            audit_inclusion("hom-algebra", "hom-dialgebra", 2, 2)

    @pytest.mark.parametrize("kinds, dim", [
        (("hom-dialgebra", "hlsda"), 0),
        (("hom-dialgebra", "hlsda"), -1),
        (("foo", "bar"), 2),
        (("hlsda", "bar"), 2),
    ])
    def test_bad_space_rejected(self, kinds, dim):
        with pytest.raises(ValueError):
            audit_inclusion(*kinds, dim, 2)

    def test_composite_modulus_rejected(self):
        with pytest.raises(FieldError):
            audit_inclusion("hom-dialgebra", "hlsda", 1, 4)

    @pytest.mark.parametrize("kinds", [("hlsda", "hom-dialgebra"),
                                       ("hom-dialgebra", "hlsda")])
    def test_kernels_agree_on_audit(self, compiled, kinds):
        fixed = [-1] * pykern.layout("hlsda", 2)[0]
        for slot in range(8):
            fixed[slot] = 0
        py = get_kernel("python").audit(*kinds, 2, 2, fixed)
        c = get_kernel("compiled").audit(*kinds, 2, 2, fixed)
        assert py == c
        # the pinned subspace still separates the classes one way only
        assert (py[1] > 0) == (kinds[0] == "hlsda")


# the Yau twist of k x k by the swap, transported by a random change of
# basis over GF(2^32 - 5), the largest prime below 2^32: it passes, and
# five of its entries do not fit a 32-bit signed int
LARGE_P = 4294967291
LARGE_P_PASSING = {
    "mu": [[[2557578400, 489092280], [308694838, 1737388891]],
           [[308694838, 1737388891], [3352695544, 3986272453]]],
    "alpha": [[2143811963, 33609902], [2883718824, 2151155328]],
}
# the smallest prime above 2^32
INEXACT_P = 4294967311


class TestCompiledOverflowGuard:
    def test_bound(self):
        # residues below 2^32 and every product of two reduced at once:
        # exact at every dimension
        assert compiled_is_exact(2)
        assert compiled_is_exact(1_000_003)
        assert compiled_is_exact(LARGE_P)
        assert not compiled_is_exact(2 ** 32)
        assert not compiled_is_exact(INEXACT_P)

    def test_auto_falls_back_and_compiled_refuses(self, monkeypatch):
        compiled = object()
        monkeypatch.setattr(_kernels, "_compiled", compiled)
        assert kernel_for("auto", 3) is compiled
        assert kernel_for("compiled", LARGE_P) is compiled
        assert kernel_for("auto", INEXACT_P) is pykern
        assert kernel_for("python", 3) is pykern
        with pytest.raises(ValueError):
            kernel_for("compiled", INEXACT_P)

    def test_unbuilt_compiled_kernel_refused_like_an_inexact_one(
            self, monkeypatch):
        monkeypatch.setattr(_kernels, "_compiled", None)
        assert available() == ("python",)
        assert get_kernel("auto") is pykern
        with pytest.raises(ValueError, match="not built"):
            get_kernel("compiled")
        with pytest.raises(ValueError, match="not built"):
            enumerate_structures(SearchSpec("hom-algebra", 1, 2),
                                 kernel="compiled")

    def test_large_prime_count(self, kernel):
        spec = SearchSpec("hom-algebra", 2, LARGE_P, fixed=LARGE_P_PASSING)
        assert enumerate_structures(spec, kernel=kernel).count == 1

    def test_auto_matches_python_at_large_prime(self, compiled):
        spec = SearchSpec("hom-algebra", 2, LARGE_P, fixed=LARGE_P_PASSING)
        assert enumerate_structures(spec, kernel="auto").kernel == "compiled"
        assert enumerate_structures(spec, kernel="auto").count == \
            enumerate_structures(spec, kernel="python").count == 1

    def test_large_entries_decide_like_the_python_kernel(self, compiled):
        # the passing candidate, then each copy with one entry moved by 1
        flat = [x for plane in LARGE_P_PASSING["mu"] for row in plane
                for x in row] + [x for row in LARGE_P_PASSING["alpha"]
                                 for x in row]
        assert compiled.passes("hom-algebra", flat, 2, LARGE_P)
        for slot in range(len(flat)):
            bent = list(flat)
            bent[slot] = (bent[slot] + 1) % LARGE_P
            assert compiled.passes("hom-algebra", bent, 2, LARGE_P) == \
                pykern.passes("hom-algebra", bent, 2, LARGE_P)


class TestStructureFromFlat:
    def test_round_trip_layout(self):
        flat = list(range(8)) + [1, 0, 0, 1]
        s = structure_from_flat("hom-algebra", [x % 2 for x in flat], 2, 2)
        assert s.mu.c[0][0][1] == 1  # slot 1 of the flat product block
        assert s.alpha.is_identity()

    @pytest.mark.parametrize("length", [11, 13, 14])
    def test_a_flat_of_the_wrong_length_is_refused(self, length):
        # a dim-2 hom-algebra candidate has 8 + 4 entries
        with pytest.raises(ShapeError, match="12 entries"):
            structure_from_flat("hom-algebra", [0] * length, 2, 2)

    @pytest.mark.parametrize("entry", [3, 5, -1, 1.0, True, "1"])
    def test_an_entry_that_is_no_residue_is_refused(self, entry):
        flat = [0] * 11 + [entry]
        with pytest.raises(ScalarParseError, match="residues mod 3"):
            structure_from_flat("hom-algebra", flat, 2, 3)

    @pytest.mark.parametrize("n, p", [(1, 5), (2, 3), (3, 2)])
    @pytest.mark.parametrize("kind", sorted(pykern.KINDS))
    def test_equal_to_the_constructors_result(self, kind, n, p):
        """The sample equals the record built through the value classes'
        constructors from nested lists: as values, by hash and in the
        product planes computed from them."""
        gf = PrimeField(p)
        total, offs, al = pykern.layout(kind, n)
        record, names, _ = KINDS[kind]
        rng = random.Random(f"{kind}:{n}:{p}")
        for with_unit in (False, True):
            flat = [rng.randrange(p) for _ in range(total)]
            rows = [flat[r:r + n] for r in range(0, total, n)]
            values = {name: hs.ProductTensor(gf, [
                rows[off // n + i * n:off // n + (i + 1) * n]
                for i in range(n)]) for name, off in zip(names, offs)}
            values["alpha"] = hs.LinearMap(gf, rows[al // n:])
            if with_unit:
                values["unit"] = hs.Vector(gf, [1] + [0] * (n - 1))
            want = record.from_sections(kind, values)
            got = structure_from_flat(kind, flat, n, p, with_unit)
            assert got == want and hash(got) == hash(want)
            assert [t.left_planes for t in got.products().values()] == \
                [t.left_planes for t in want.products().values()]
            assert got.unit == want.unit


class TestMorphismSearch:
    def test_identity_found_for_equal_structures(self):
        gf = PrimeField(2)
        mu = hs.ProductTensor(gf, (((1, 0), (0, 0)), ((0, 0), (0, 0))))
        s = hs.HomAlgebra(mu, hs.identity_map(gf, 2))
        hits = find_morphisms(s, s)
        assert any(m.f.is_identity() for m in hits)

    def test_zero_algebra_dim1_has_both_maps(self):
        gf = PrimeField(2)
        zero = hs.HomAlgebra(hs.ProductTensor(gf, (((0,),),)),
                             hs.identity_map(gf, 1))
        hits = find_morphisms(zero, zero)
        assert len(hits) == 2
        assert sorted(m.f.rows[0][0] for m in hits) == [0, 1]

    def test_results_reverify(self):
        r = enumerate_structures(SearchSpec("hom-algebra", 2, 2, cap=3))
        src, dst = r.structures[0], r.structures[1]
        for m in find_morphisms(src, dst):
            assert hs.check_morphism(m.f, src, dst).passed

    def test_rational_structures_rejected(self, z2group):
        from homstruct.errors import FieldMismatchError
        with pytest.raises(FieldMismatchError):
            find_morphisms(z2group, z2group)


def pairwise_orbits(structures):
    """The greedy pairwise grouping: a structure joins the first orbit
    whose first member has an invertible morphism to it."""
    orbits = []
    for s in structures:
        for orbit in orbits:
            a = orbit[0]
            if a.dim == s.dim and any(_det(m.f.rows) % s.field.p
                                      for m in find_morphisms(a, s)):
                orbit.append(s)
                break
        else:
            orbits.append([s])
    return orbits


def _det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def ids(orbits):
    return [[id(s) for s in orbit] for orbit in orbits]


def stream(kind, dim, p, **spec):
    return enumerate_structures(
        SearchSpec(kind, dim, p, cap=1 << 20, **spec)).structures


GF2 = PrimeField(2)
IDENTITY2 = [[1, 0], [0, 1]]


def z2_group_bialgebra():
    """GF(2)[Z/2] with basis 1, t: t * t = 1, both grouplike, eps = (1, 1)."""
    mu = hs.ProductTensor(GF2, (((1, 0), (0, 1)), ((0, 1), (1, 0))))
    delta = hs.CoproductTensor(GF2, (((1, 0), (0, 0)), ((0, 0), (0, 1))))
    return hs.HomBialgebra(mu, hs.Vector(GF2, (1, 0)), delta,
                           hs.LinearMap(GF2, ((1, 1),)),
                           hs.identity_map(GF2, 2))


def transport(s, g, h):
    """g . s for a hom-algebra or hom-bialgebra s and h = g^-1, built with
    the linalg calculus: mu'(x, y) = g mu(h x, h y), alpha' = g alpha h,
    unit' = g unit, Delta' = (g (x) g) Delta h and eps' = eps h."""
    cols = [h.column(i) for i in range(s.dim)]
    mu = tuple(tuple(g.apply(hs.apply_bilinear(s.mu, x, y)).coords
                     for y in cols) for x in cols)
    changes = {"mu": hs.ProductTensor(s.field, mu),
               "alpha": hs.compose(hs.compose(g, s.alpha), h)}
    if s.unit is not None:
        changes["unit"] = g.apply(s.unit)
    if isinstance(s, hs.HomBialgebra):
        changes["delta"] = hs.CoproductTensor(s.field, tuple(
            hs.apply_coproduct(s.delta, x).map_left(g).map_right(g).entries
            for x in cols))
        changes["counit"] = hs.compose(s.counit, h)
    return dataclasses.replace(s, **changes)


class TestIsomorphismOrbits:
    def test_dim1_gf2_orbits_are_singletons(self):
        # the only invertible map on a 1-dim GF(2) space is the identity
        r = enumerate_structures(SearchSpec("hom-algebra", 1, 2, cap=10))
        orbits = group_by_isomorphism(r.structures)
        assert len(orbits) == 4

    def test_dim1_gf3_orbits_merge_scaled_products(self):
        # over GF(3) the invertible scalings are 1 and 2; conjugating by 2
        # halves the product constant and fixes the twist, so (1, t) and
        # (2, t) collapse while (0, t) stays alone
        r = enumerate_structures(SearchSpec("hom-algebra", 1, 3, cap=10))
        orbits = group_by_isomorphism(r.structures)
        assert len(orbits) == 5
        sizes = sorted(len(o) for o in orbits)
        assert sizes == [1, 1, 1, 2, 2]

    @pytest.mark.parametrize("kind, fixed", [
        ("hom-algebra", None), ("hom-leibniz", None), ("hom-prelie", None),
        # the twist pinned to the identity keeps the sweep at 2^16
        ("hom-dialgebra", {"alpha": IDENTITY2}),
        ("hlsda", {"alpha": IDENTITY2})])
    def test_matches_pairwise_search_gf2(self, kind, fixed):
        sample = random.Random(kind).sample(stream(kind, 2, 2, fixed=fixed),
                                            30)
        orbits = group_by_isomorphism(sample)
        assert len(orbits) < len(sample)
        assert ids(orbits) == ids(pairwise_orbits(sample))

    @pytest.mark.parametrize("kind", ["hom-algebra", "hom-prelie"])
    def test_matches_pairwise_search_on_unital_streams(self, kind):
        structures = stream(kind, 2, 2, require_unit=True)
        orbits = group_by_isomorphism(structures)
        assert len(orbits) < len(structures)
        assert ids(orbits) == ids(pairwise_orbits(structures))

    def test_matches_pairwise_search_gf3(self):
        structures = stream("hom-algebra", 2, 3, fixed={"alpha": IDENTITY2})
        sample = random.Random(3).sample(structures, 24)
        orbits = group_by_isomorphism(sample)
        assert len(orbits) < len(sample)
        assert ids(orbits) == ids(pairwise_orbits(sample))

    def test_dimensions_stay_apart(self):
        mixed = stream("hom-algebra", 1, 2) + stream("hom-algebra", 2, 2)[:40]
        orbits = group_by_isomorphism(mixed)
        assert all(len({s.dim for s in orbit}) == 1 for orbit in orbits)
        assert ids(orbits) == ids(pairwise_orbits(mixed))

    @pytest.mark.parametrize("kind, classes", [
        ("hom-algebra", 77), ("hom-leibniz", 101), ("hom-prelie", 147)])
    def test_full_gf2_stream_class_counts(self, kind, classes):
        assert len(group_by_isomorphism(stream(kind, 2, 2))) == classes

    def test_coproduct_and_counit_are_transported(self):
        s = z2_group_bialgebra()
        g = hs.LinearMap(GF2, ((1, 1), (0, 1)))
        t = transport(s, g, g)  # g is its own inverse over GF(2)
        assert t.delta != s.delta and t.counit != s.counit
        assert hs.check_morphism(g, s, t).passed
        assert ids(group_by_isomorphism([s, t])) == ids([[s, t]])
        d = [[list(row) for row in plane] for plane in t.delta.d]
        d[0][1][1] ^= 1
        bad_delta = dataclasses.replace(
            t, delta=hs.CoproductTensor(GF2, d))
        bad_counit = dataclasses.replace(
            t, counit=hs.LinearMap(GF2, ((1, 1),)))
        for bad in (bad_delta, bad_counit):
            orbits = group_by_isomorphism([s, t, bad])
            assert ids(orbits) == ids([[s, t], [bad]])
            assert ids(orbits) == ids(pairwise_orbits([s, t, bad]))

    def test_unit_is_transported(self):
        # a genuine unit is fixed by its product, so these declared vectors
        # over the zero product (not units, and flagged by validate) are
        # what shows the unit in the key: GL_2(F_2) moves e1 to e2, never
        # to 0
        zero = hs.ProductTensor(GF2, [[[0, 0]] * 2] * 2)
        a, b, c = (hs.HomAlgebra(zero, hs.identity_map(GF2, 2),
                                 hs.Vector(GF2, u))
                   for u in ((1, 0), (0, 1), (0, 0)))
        assert ids(group_by_isomorphism([a, b, c])) == ids([[a, b], [c]])

    def test_empty_input(self):
        assert group_by_isomorphism([]) == []

    def test_mixed_kinds_refused(self):
        algebra = stream("hom-algebra", 2, 2)[5]
        leibniz = stream("hom-leibniz", 2, 2)[5]
        with pytest.raises(ShapeError):
            group_by_isomorphism([algebra, leibniz])

    def test_unit_on_some_members_refused(self):
        unital = stream("hom-algebra", 2, 2, require_unit=True)[0]
        bare = dataclasses.replace(unital, unit=None)
        with pytest.raises(ShapeError):
            group_by_isomorphism([unital, bare])

    def test_counit_on_some_members_refused(self):
        s = z2_group_bialgebra()
        counital = hs.HomCoalgebra(s.delta, s.alpha, s.counit)
        bare = hs.HomCoalgebra(s.delta, s.alpha)
        with pytest.raises(ShapeError):
            group_by_isomorphism([counital, bare])

    def test_mixed_fields_refused(self):
        a = stream("hom-algebra", 1, 2)[0]
        b = stream("hom-algebra", 1, 3)[0]
        with pytest.raises(FieldMismatchError):
            group_by_isomorphism([a, b])

    def test_rational_structures_refused(self, z2group):
        with pytest.raises(FieldMismatchError):
            group_by_isomorphism([z2group])

    def test_group_over_budget_refused(self, monkeypatch):
        gf3 = stream("hom-algebra", 2, 3, fixed={"alpha": IDENTITY2})[:1]
        # |GL_2(F_2)| = 6 fits, |GL_2(F_3)| = 48 does not
        monkeypatch.setattr(search, "GROUP_ORDER_BUDGET", 47)
        with pytest.raises(BudgetExceededError):
            group_by_isomorphism(gf3)
        assert len(group_by_isomorphism(stream("hom-algebra", 2, 2))) == 77

    def test_large_group_refused_before_it_is_built(self):
        # |GL_3(F_5)| is about 1.5e6 and |GL_2(F_251)| about 4e9
        for n, p in ((3, 5), (2, 251)):
            gf = PrimeField(p)
            zero = hs.ProductTensor(gf, [[[0] * n] * n] * n)
            s = hs.HomAlgebra(zero, hs.identity_map(gf, n))
            with pytest.raises(BudgetExceededError):
                group_by_isomorphism([s])


# The per-element canonical form: four small matrix products per
# (structure, group element). The packed forms must equal it exactly.
_G, _H, _GG, _HH = range(4)


def _matmul(a, b, p):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in a]


def _kron(a, b, p):
    return [[x * y % p for x in ra for y in rb] for ra in a for rb in b]


def _section_matrices(s):
    """The sections, as (left, matrix, right): the transport by g is
    group[left] . matrix . group[right] (a None factor is skipped)."""
    n = s.dim
    out = []
    for _, t in sorted(s.products().items()):
        c = t.c
        out.append((_G, [[c[i][j][k] for i in range(n) for j in range(n)]
                         for k in range(n)], _HH))
    out.append((_G, s.alpha.rows, _H))
    if getattr(s, "unit", None) is not None:
        out.append((_G, [[x] for x in s.unit.coords], None))
    for _, q in sorted(s.coproducts().items()):
        d = q.d
        out.append((_GG, [[d[k][i][j] for k in range(n)]
                          for i in range(n) for j in range(n)], _H))
    for _, eps in sorted(s.counits().items()):
        out.append((None, eps.rows, _H))
    return out


def _transport(sections, g, p):
    """The flat array of g . s, entries mod p; g holds (g, g^-1,
    g (x) g, g^-1 (x) g^-1)."""
    flat = []
    for left, m, right in sections:
        if right is not None:
            m = _matmul(m, g[right], p)
        if left is not None:
            m = _matmul(g[left], m, p)
        for row in m:
            flat.extend(row)
    return tuple(flat)


@functools.lru_cache(maxsize=None)
def reference_group(n, p):
    """Each g in GL_n(F_p) as (g, g^-1, g (x) g, g^-1 (x) g^-1)."""
    return [(g, h, _kron(g, g, p), _kron(h, h, p))
            for g, h in search._general_linear_group(n, p)]


def reference_forms(structures):
    """(dim, least flat array over g . s) of each structure, one
    transport per element of GL_n(F_p)."""
    p = structures[0].field.p
    return [(s.dim, min(_transport(_section_matrices(s), g, p)
                        for g in reference_group(s.dim, p)))
            for s in structures]


def random_structure(shape, n, p, rnd, top=False):
    """A hom-algebra ("algebra"), a unital one ("unital") or a hom-bialgebra
    shaped like z2_group_bialgebra ("bialgebra") with random entries, or
    with every entry p - 1 when ``top``; no axiom is imposed."""
    gf = PrimeField(p)

    def entries(*shape):
        if not shape:
            return p - 1 if top else rnd.randrange(p)
        return [entries(*shape[1:]) for _ in range(shape[0])]

    mu = hs.ProductTensor(gf, entries(n, n, n))
    alpha = hs.LinearMap(gf, entries(n, n))
    if shape == "algebra":
        return hs.HomAlgebra(mu, alpha)
    unit = hs.Vector(gf, entries(n))
    if shape == "unital":
        return hs.HomAlgebra(mu, alpha, unit)
    return hs.HomBialgebra(mu, unit, hs.CoproductTensor(gf, entries(n, n, n)),
                           hs.LinearMap(gf, entries(1, n)), alpha)


def orbit_sample(shape, n, p, seed, bases, top=False):
    """``bases`` random structures (the first with every entry p - 1 when
    ``top``), each with its transport by a random invertible map,
    shuffled."""
    rnd = random.Random(seed)
    gf = PrimeField(p)
    sample = []
    for b in range(bases):
        s = random_structure(shape, n, p, rnd, top=top and b == 0)
        while True:
            g = [[rnd.randrange(p) for _ in range(n)] for _ in range(n)]
            h = search._inverse(g, p)
            if h is not None:
                break
        sample += [s, transport(s, hs.LinearMap(gf, g), hs.LinearMap(gf, h))]
    rnd.shuffle(sample)
    return sample


def field_format(sample):
    layout = search._sections(sample[0])[0]
    return search.field_format(max(r * c for _, r, c, _ in layout),
                               sample[0].field.p)


class TestPackedCanonicalForms:
    def check(self, sample, orbits=True):
        n, p = sample[0].dim, sample[0].field.p
        want = reference_forms(sample)
        assert [(n, form) for form in
                search._canonical_forms(sample, n, p)] == want
        if orbits:
            by_form = {}
            for s, key in zip(sample, want):
                by_form.setdefault(key, []).append(s)
            assert ids(group_by_isomorphism(sample)) == ids(by_form.values())
            # each structure shares its orbit with its transport
            assert all(len(orbit) >= 2 for orbit in by_form.values())

    @pytest.mark.parametrize("p, n, bases", [
        (2, 1, 3), (2, 2, 6), (2, 3, 4), (3, 1, 3), (3, 2, 5), (5, 1, 3),
        (5, 2, 3), (13, 1, 3)])
    @pytest.mark.parametrize("shape", ["algebra", "unital", "bialgebra"])
    def test_equal_to_per_element_transport(self, shape, p, n, bases):
        self.check(orbit_sample(shape, n, p, f"{shape}{p}{n}", bases))

    @pytest.mark.parametrize("shape, p, n", [
        ("algebra", 3, 3), ("algebra", 13, 2)])
    def test_equal_to_per_element_transport_on_large_groups(self, shape,
                                                            p, n):
        # GL_3(F_3) has 11232 elements and GL_2(F_13) 26208; the orbits
        # follow from the forms
        self.check(orbit_sample(shape, n, p, f"{shape}{p}{n}", 1),
                   orbits=False)

    @pytest.mark.parametrize("shape, p, n, fmt", [
        ("bialgebra", 2, 3, "B"), ("bialgebra", 3, 2, "B"),
        ("unital", 5, 2, "H"), ("bialgebra", 43, 1, "I"),
        ("algebra", 1627, 1, "Q")])
    def test_every_field_width_at_entries_p_minus_1(self, shape, p, n, fmt):
        # a field sums N products of three residues; at n = 1 it holds
        # (p - 1) . a . (a^-2 mod p) for the transport by a, which passes
        # 2^16 at p = 43 and 2^32 at p = 1627
        bases = {1: 2, 2: 2, 3: 1}[n]
        sample = orbit_sample(shape, n, p, f"top{p}", bases, top=True)
        assert field_format(sample) == fmt
        self.check(sample)

    def test_field_format_is_the_narrowest_without_carry(self):
        assert [search.field_format(size, p) for size, p in [
            (255, 2), (256, 2), (31, 3), (32, 3), (1, 41), (1, 42),
            (1, 1626), (1, 1627)]] == ["B", "H", "B", "H", "H", "I",
                                       "I", "Q"]

    def test_cached_group_keeps_the_budget(self, monkeypatch):
        gf3 = stream("hom-algebra", 2, 3, fixed={"alpha": IDENTITY2})[:8]
        group_by_isomorphism(gf3)  # caches GL_2(F_3)
        monkeypatch.setattr(search, "GROUP_ORDER_BUDGET", 47)
        with pytest.raises(BudgetExceededError):
            group_by_isomorphism(gf3)

    @pytest.mark.parametrize("n, p, order", [
        (1, 2, 1), (1, 5, 4), (2, 2, 6), (2, 3, 48), (3, 2, 168)])
    def test_group_elements_come_with_their_inverses(self, n, p, order):
        group = search._general_linear_group(n, p)
        assert len(group) == len(set(group)) == order
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert all(_matmul(g, h, p) == identity for g, h in group)
