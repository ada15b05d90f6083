"""Reference isomorphism classes over GF(p) by transport of structure.

This is the benchmark's own answer for the ``classify`` workload, written
independently of ``homstruct.search``: a structure with products mu and
twist alpha is carried by g in GL_n(F_p) to

    mu'(x, y) = g mu(g^-1 x, g^-1 y),    alpha' = g alpha g^-1,

and two structures are isomorphic exactly when one is the transport of
the other. The canonical form of a structure is the lexicographically
least flat array over its orbit, in the search kernel's flat layout
(product tensors in order, entry (i, j, k) of mu at (i*n + j)*n + k,
then the twist row-major).
"""

from __future__ import annotations

import itertools


def general_linear_group(n: int, p: int) -> list:
    """Every invertible n-by-n matrix over GF(p), as (g, g^-1) row tuples."""
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        g = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        inv = _inverse(g, p)
        if inv is not None:
            out.append((g, inv))
    return out


def _inverse(g, p):
    n = len(g)
    rows = [list(r) + [1 if i == j else 0 for j in range(n)]
            for i, r in enumerate(g)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % p), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], p - 2, p)
        rows[col] = [x * scale % p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(r[n:]) for r in rows)


def _matmul(a, b, p):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p
                       for j in range(n)) for i in range(n))


def conjugacy_classes(group, p) -> list:
    """The classes of ``group`` (as ``general_linear_group`` returns it)
    under conjugation, each a sorted list of matrices."""
    classes = {}
    for g, _ in group:
        members = sorted({_matmul(_matmul(h, g, p), h_inv, p)
                          for h, h_inv in group})
        classes[members[0]] = members
    return [classes[k] for k in sorted(classes)]


def flat_of(structure) -> tuple:
    """The structure's constants in the kernel's flat layout, as ints."""
    n = structure.dim
    products = structure.products()
    flat = []
    for name in sorted(products):  # "left" < "right", "mu" alone
        c = products[name].c
        flat.extend(int(c[i][j][k]) for i in range(n) for j in range(n)
                    for k in range(n))
    flat.extend(int(x) for row in structure.alpha.rows for x in row)
    return tuple(flat)


def transport(flat, n: int, p: int, products: int, g, g_inv) -> tuple:
    """The flat array of g . structure."""
    out = []
    for t in range(products):
        c = flat[t * n ** 3:(t + 1) * n ** 3]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = 0
                    for a in range(n):
                        hai = g_inv[a][i]
                        if not hai:
                            continue
                        for b in range(n):
                            hbj = g_inv[b][j]
                            if not hbj:
                                continue
                            base = (a * n + b) * n
                            for m in range(n):
                                acc += hai * hbj * c[base + m] * g[k][m]
                    out.append(acc % p)
    al = flat[products * n ** 3:]
    for i in range(n):
        for j in range(n):
            acc = 0
            for a in range(n):
                for b in range(n):
                    acc += g[i][a] * al[a * n + b] * g_inv[b][j]
            out.append(acc % p)
    return tuple(out)


def canonical_form(flat, n: int, p: int, products: int, group) -> tuple:
    return min(transport(flat, n, p, products, g, h) for g, h in group)


def reference_partition(structures, p: int, group=None) -> set:
    """Partition of ``range(len(structures))`` into isomorphism classes,
    as a set of frozensets of indices."""
    structures = list(structures)
    if not structures:
        return set()
    n = structures[0].dim
    products = len(structures[0].products())
    group = group or general_linear_group(n, p)
    classes = {}
    for idx, s in enumerate(structures):
        key = canonical_form(flat_of(s), n, p, products, group)
        classes.setdefault(key, []).append(idx)
    return {frozenset(v) for v in classes.values()}
