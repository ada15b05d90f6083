#!/usr/bin/env python3
"""Benchmark the compiled search kernel against the pure-Python fallback.

Runs the same exhaustive sweeps through both kernels, checks that they
return the same count and the same sample stream, and prints wall
times, raw candidates per second and the speedup. The full GF(2) dim-2
dialgebra and hlsda spaces (2^20 candidates each), two GF(3) rows with
the twist pinned, and the unital dim-3 GF(2) hom-algebras (512 twist
templates, each specialised before its walk; 4,268 structures) run
through both kernels, all but two collecting every sample. Those two,
the 2^20 spaces again with cap 0, time the walk alone: collecting
65,854 or 67,168 sample tuples is most of a full 2^20 row. Two more
rows time the scalar Python walk over GF(p >= 5), where nothing packs:
the GF(5) dim-2 hom-algebra space with the identity twist pinned (the
associative algebras), and the full dim-1 GF(1009) hom-algebra space
(1,009 twist templates). The "search shapes" row sweeps the templates
of the search workload, cap 16: dimension 2, each invertible twist
pinned, the one-product kinds over GF(3) and the two-product kinds over
GF(2). Both kernels run the same pruned walk over pykern's staged
program, so a rate counts the raw candidates the walk accounts for, not
the nodes it visits. Every row but two reads the program from pykern's
caches after the warm-up call. The two "cold program" rows, one unital
dim-3 GF(2) hom-algebra template with the identity twist and one
twist-pinned dim-2 GF(2) hlsda template, clear ``pykern._program``'s
and ``pykern._flat_program``'s caches before each call: they time what
a sweep with new product pins pays for stage 1 (and, compiled, for its
encoding). The full dialgebra-vs-hlsda audit runs on each kernel. A last layer row groups the full dim-2 GF(2) hom-algebra,
hom-leibniz and hom-prelie streams into isomorphism classes and checks
the class counts. Every time is the best of 3 calls after a warm-up call.

Usage: python benchmarks/bench_kernels.py
"""

import itertools
import time

from homstruct._kernels import available, get_kernel, pykern
from homstruct.search import (SearchSpec, _flat_template,
                              enumerate_structures, group_by_isomorphism)

# isomorphism classes of the full dim-2 GF(2) streams
ORBIT_COUNTS = {"hom-algebra": 77, "hom-leibniz": 101, "hom-prelie": 147}

ALL_SAMPLES = 2 ** 62


def best_of_3(call):
    """``call()``'s result, and its best wall time over 3 calls after a
    warm-up call."""
    result = call()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return result, min(times)


def free_template(kind, n):
    total, _, _ = pykern.layout(kind, n)
    return [-1] * total


def twist_pinned_template(kind, n, twist):
    fixed = free_template(kind, n)
    _, _, alpha_off = pykern.layout(kind, n)
    fixed[alpha_off:] = [x for row in twist for x in row]
    return fixed


def sweep_row(kind, n, p, fixed, cap):
    """(label, raw candidates, the sweep on a kernel as a list)."""
    free = sum(1 for x in fixed if x < 0)
    label = f"{kind} n={n} p={p} " + (f"({p}^{free})" if cap else "cap 0")
    return label, p ** free, lambda kern: [kern.sweep(kind, n, p, fixed, cap)]


def search_shapes_row():
    """The search workload's sweeps as one row: dimension 2, each
    invertible twist pinned, over GF(3) for one product, GF(2) for two,
    cap 16."""
    templates = []
    for kind, products in pykern.KINDS.items():
        p = 3 if products == 1 else 2
        for a, b, c, d in itertools.product(range(p), repeat=4):
            if (a * d - b * c) % p:
                templates.append((kind, p, twist_pinned_template(
                    kind, 2, [[a, b], [c, d]])))
    raw = sum(p ** fixed.count(-1) for _, p, fixed in templates)
    return (f"search shapes ({len(templates)} templates)", raw,
            lambda kern: [kern.sweep(kind, 2, p, fixed, 16)
                          for kind, p, fixed in templates])


def cold_row(kind, n, p, fixed):
    """``sweep_row`` of ``fixed``, its twist pinned, with the caches of
    the program and of its encoding cleared before each sweep."""
    label, raw, sweep = sweep_row(kind, n, p, fixed, ALL_SAMPLES)

    def cold(kern):
        pykern._program.cache_clear()
        pykern._flat_program.cache_clear()
        return sweep(kern)

    return "cold " + label, raw, cold


def rate(candidates, seconds):
    return f"{candidates / seconds:>10.3g}" if seconds > 0 else f"{'inf':>10}"


def run():
    sweeps = [
        ("hom-algebra", 2, 2, free_template("hom-algebra", 2), ALL_SAMPLES),
        ("hom-leibniz", 2, 2, free_template("hom-leibniz", 2), ALL_SAMPLES),
        ("hom-prelie", 2, 2, free_template("hom-prelie", 2), ALL_SAMPLES),
        ("hom-algebra", 2, 3,
         twist_pinned_template("hom-algebra", 2, [[1, 1], [0, 1]]),
         ALL_SAMPLES),
        ("hom-dialgebra", 2, 2, free_template("hom-dialgebra", 2),
         ALL_SAMPLES),
        ("hlsda", 2, 2, free_template("hlsda", 2), ALL_SAMPLES),
        ("hom-dialgebra", 2, 2, free_template("hom-dialgebra", 2), 0),
        ("hlsda", 2, 2, free_template("hlsda", 2), 0),
        ("hom-dialgebra", 2, 3,
         twist_pinned_template("hom-dialgebra", 2, [[1, 1], [0, 1]]),
         ALL_SAMPLES),
        ("hom-algebra", 3, 2, _flat_template(
            SearchSpec("hom-algebra", 3, 2, require_unit=True), "python")[0],
         ALL_SAMPLES),
        ("hom-algebra", 2, 5,
         twist_pinned_template("hom-algebra", 2, [[1, 0], [0, 1]]),
         ALL_SAMPLES),
        ("hom-algebra", 1, 1009, free_template("hom-algebra", 1),
         ALL_SAMPLES),
    ]
    unital = _flat_template(
        SearchSpec("hom-algebra", 3, 2, require_unit=True), "python")[0]
    al = pykern.layout("hom-algebra", 3)[2]
    rows = [sweep_row(*sweep) for sweep in sweeps] + [
        search_shapes_row(),
        cold_row("hom-algebra", 3, 2,
                 unital[:al] + [1, 0, 0, 0, 1, 0, 0, 0, 1]),
        cold_row("hlsda", 2, 2,
                 twist_pinned_template("hlsda", 2, [[1, 1], [0, 1]]))]

    have_compiled = "compiled" in available()
    print(f"kernels available: {', '.join(available())}")
    header = f"{'workload':<32} {'count':>8} {'python':>10} {'cand/s':>10}"
    if have_compiled:
        header += f" {'compiled':>10} {'cand/s':>10} {'speedup':>8}"
    print(header)
    for label, raw, sweep in rows:
        kern = get_kernel("python")
        py, t_py = best_of_3(lambda: sweep(kern))
        count = sum(found for found, _ in py)
        line = f"{label:<32} {count:>8} {t_py:>9.4f}s {rate(raw, t_py)}"
        if have_compiled:
            kern = get_kernel("compiled")
            c, t_c = best_of_3(lambda: sweep(kern))
            assert py == c, (label, "sample streams differ")
            speedup = t_py / t_c if t_c > 0 else float("inf")
            line += f" {t_c:>9.4f}s {rate(raw, t_c)} {speedup:>7.1f}x"
        print(line)

    print()
    audits = []
    for kernel in available():
        result, t = best_of_3(lambda: get_kernel(kernel).audit(
            "hom-dialgebra", "hlsda", 2, 2, free_template("hom-dialgebra", 2)))
        audits.append(result)
        print(f"full dialgebra-vs-left-disymmetry audit ({kernel}): "
              f"{result[0]} dialgebras, {result[1]} violations, {t:.2f}s")
    assert all(a == audits[0] for a in audits), "audits differ"

    print(f"\n{'group_by_isomorphism':<32} {'structs':>8} {'classes':>8} "
          f"{'time':>10}")
    for kind, classes in ORBIT_COUNTS.items():
        spec = SearchSpec(kind, 2, 2, cap=2 ** pykern.layout(kind, 2)[0])
        structures = enumerate_structures(spec).structures
        orbits, t = best_of_3(lambda: group_by_isomorphism(structures))
        assert len(orbits) == classes, (kind, len(orbits), classes)
        print(f"{kind + ' n=2 p=2':<32} {len(structures):>8} "
              f"{len(orbits):>8} {t:>9.3f}s")


if __name__ == "__main__":
    run()
