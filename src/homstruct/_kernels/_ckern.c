/* Compiled search kernel: pykern's axiom systems in C, swept by an
   unpruned odometer.

   See pykern's module docstring for the flat candidate layout and the two
   contraction helpers; counts and sample streams must match pykern's bit
   for bit. This file holds no kind names and no layout formula: callers
   pass a layout tuple (kind, left, right, al) holding the kind's position
   in pykern.KINDS and the offsets of its products and of its twist, taken
   from pykern.layout (left == right for a one-product kind).

   Entries are residues mod p < 2^32 held in 64-bit unsigned words, and
   every product of two residues is reduced at once, so no sum or product
   overflows at any dimension. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint64_t u64;

#define NKINDS 5  /* len(pykern.KINDS) */

typedef struct {
    u64 *v;            /* the candidate */
    Py_ssize_t *free;  /* its free slots, most significant first */
    Py_ssize_t total, nfree;
    int n, left, right, al;
    u64 p;
} Space;

static inline u64 mulmod(u64 a, u64 b, u64 p) { return a * b % p; }

static inline u64 addmod(u64 a, u64 b, u64 p) { return a + b >= p ? a + b - p : a + b; }

/* coordinate l of outer(x, y) for the vectors x = v[x0 + t * xs] and
   y = v[y0 + t * ys], skipping zero coordinates as pykern does */
static inline u64 outer_at(const Space *s, int outer, int x0, int xs, int y0, int ys,
                           int l) {
    const u64 *v = s->v;
    int n = s->n;
    u64 p = s->p, acc = 0;
    for (int a = 0; a < n; a++) {
        u64 xa = v[x0 + a * xs];
        for (int b = 0; xa && b < n; b++) {
            u64 yb = v[y0 + b * ys];
            if (yb)
                acc = addmod(acc, mulmod(mulmod(xa, yb, p), v[outer + (a * n + b) * n + l], p), p);
        }
    }
    return acc;
}

/* coordinate l of outer(inner(e_i, e_j), twist(e_k)) */
static u64 ot(const Space *s, int outer, int inner, int i, int j, int k, int l) {
    return outer_at(s, outer, inner + (i * s->n + j) * s->n, 1, s->al + k, s->n, l);
}

/* coordinate l of outer(twist(e_i), inner(e_j, e_k)) */
static u64 to(const Space *s, int outer, int inner, int i, int j, int k, int l) {
    return outer_at(s, outer, s->al + i, s->n, inner + (j * s->n + k) * s->n, 1, l);
}

/* a - b == c - d mod p, tested as a + d == c + b */
static int diffs_equal(u64 a, u64 b, u64 c, u64 d, u64 p) {
    return addmod(a, d, p) == addmod(c, b, p);
}

#define FOR_IJKL(n) \
    for (int i = 0; i < (n); i++) for (int j = 0; j < (n); j++) \
    for (int k = 0; k < (n); k++) for (int l = 0; l < (n); l++)

/* twist(product(e_i, e_j)) == product(twist e_i, twist e_j) */
static int mult_ok(const Space *s, int mu) {
    int n = s->n, al = s->al;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            for (int k = 0; k < n; k++) {
                u64 lhs = 0;
                for (int m = 0; m < n; m++)
                    lhs = addmod(lhs, mulmod(s->v[al + k * n + m],
                                             s->v[mu + (i * n + j) * n + m], s->p), s->p);
                if (lhs != outer_at(s, mu, al + i, n, al + j, n, k))
                    return 0;
            }
    return 1;
}

static int homassoc_ok(const Space *s, int mu) {
    FOR_IJKL(s->n)
        if (to(s, mu, mu, i, j, k, l) != ot(s, mu, mu, i, j, k, l))
            return 0;
    return 1;
}

static int leibniz_ok(const Space *s, int br) {
    FOR_IJKL(s->n)
        if (ot(s, br, br, i, j, k, l) != addmod(ot(s, br, br, i, k, j, l),
                                                to(s, br, br, i, j, k, l), s->p))
            return 0;
    return 1;
}

static int prelie_ok(const Space *s, int mu) {
    FOR_IJKL(s->n)
        if (!diffs_equal(to(s, mu, mu, i, j, k, l), ot(s, mu, mu, i, j, k, l),
                         to(s, mu, mu, j, i, k, l), ot(s, mu, mu, j, i, k, l), s->p))
            return 0;
    return 1;
}

static int dialgebra_axioms_ok(const Space *s, int left, int right) {
    FOR_IJKL(s->n)
        if (to(s, left, left, i, j, k, l) != to(s, left, right, i, j, k, l)
                || ot(s, left, right, i, j, k, l) != to(s, right, left, i, j, k, l)
                || ot(s, right, right, i, j, k, l) != ot(s, right, left, i, j, k, l))
            return 0;
    return 1;
}

static int hlsda_ok(const Space *s, int left, int right) {
    u64 p = s->p;
    FOR_IJKL(s->n)
        if (to(s, left, left, i, j, k, l) != to(s, left, right, i, j, k, l)
                || ot(s, right, right, i, j, k, l) != ot(s, right, left, i, j, k, l)
                || !diffs_equal(to(s, left, left, i, j, k, l),
                                ot(s, left, left, i, j, k, l),
                                to(s, right, left, j, i, k, l),
                                ot(s, left, right, j, i, k, l), p)
                || !diffs_equal(to(s, right, right, i, j, k, l),
                                ot(s, right, right, i, j, k, l),
                                to(s, right, right, j, i, k, l),
                                ot(s, right, right, j, i, k, l), p))
            return 0;
    return 1;
}

/* the cases follow the order of pykern.KINDS, as pykern.passes does */
static int passes(int kind, const Space *s) {
    int left = s->left, right = s->right;
    switch (kind) {
    case 0: return mult_ok(s, left) && homassoc_ok(s, left);
    case 1: return leibniz_ok(s, left);
    case 2: return prelie_ok(s, left);
    case 3: return mult_ok(s, left) && mult_ok(s, right) && homassoc_ok(s, left)
                   && homassoc_ok(s, right) && dialgebra_axioms_ok(s, left, right);
    default: return hlsda_ok(s, left, right);
    }
}

/* Step to the next candidate in lexicographic order; 0 once exhausted. */
static int advance(Space *s) {
    for (Py_ssize_t pos = s->nfree - 1; pos >= 0; pos--) {
        u64 *x = &s->v[s->free[pos]];
        if (++*x < s->p)
            return 1;
        *x = 0;
    }
    return 0;
}

/* Fill s from a layout tuple, n, p and a flat candidate, where a negative
   entry marks a free slot and every other entry is a residue mod p. */
static int space_init(Space *s, int *kind_a, int kind_b, PyObject *layout, int n,
                      long long p, PyObject *fixed) {
    memset(s, 0, sizeof *s);
    if (!PyArg_ParseTuple(layout, "iiii", kind_a, &s->left, &s->right, &s->al))
        return -1;
    PyObject *fast = PySequence_Fast(fixed, "a candidate must be a sequence");
    if (fast == NULL)
        return -1;
    s->n = n;
    s->p = (u64)p;
    s->total = PySequence_Fast_GET_SIZE(fast);
    long long cube = (long long)n * n * n, total = s->total;
    if (*kind_a < 0 || *kind_a >= NKINDS || kind_b >= NKINDS || n < 1 || p < 2
            || p >= (1LL << 32) || total > INT_MAX
            || s->left < 0 || s->left + cube > total
            || s->right < 0 || s->right + cube > total
            || s->al < 0 || s->al + (long long)n * n > total) {
        PyErr_SetString(PyExc_ValueError, "the kinds or the layout do not fit the "
                        "candidate, or p is not in [2, 2**32)");
        goto fail;
    }
    /* one block: the candidate, then its free slots */
    s->v = PyMem_Malloc((sizeof(u64) + sizeof(Py_ssize_t)) * (size_t)(total + 1));
    if (s->v == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    s->free = (Py_ssize_t *)(s->v + total + 1);
    for (Py_ssize_t t = 0; t < total; t++) {
        long long x = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, t));
        if (x == -1 && PyErr_Occurred())
            goto fail;
        if (x >= p) {
            PyErr_SetString(PyExc_ValueError, "candidate entries must be residues mod p");
            goto fail;
        }
        if (x < 0)
            s->free[s->nfree++] = t;
        s->v[t] = x < 0 ? 0 : (u64)x;
    }
    Py_DECREF(fast);
    return 0;
fail:
    Py_DECREF(fast);
    PyMem_Free(s->v);
    return -1;
}

static int append_candidate(PyObject *list, const Space *s) {
    PyObject *t = PyTuple_New(s->total);
    if (t == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < s->total; i++) {
        PyObject *x = PyLong_FromUnsignedLongLong(s->v[i]);
        if (x == NULL) {
            Py_DECREF(t);
            return -1;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    int rc = PyList_Append(list, t);
    Py_DECREF(t);
    return rc;
}

/* scan(layout_a, kind_b, n, p, fixed, cap) -> (count, hits, first cap hits):
   over every candidate, count those passing kind a; a hit is one of them
   that fails kind b, or any of them when kind_b is negative. */
static PyObject *scan(PyObject *self, PyObject *args) {
    PyObject *layout, *fixed, *hits;
    int kind_a, kind_b, n;
    long long p, cap;
    Space s;
    if (!PyArg_ParseTuple(args, "OiiLOL", &layout, &kind_b, &n, &p, &fixed, &cap)
            || space_init(&s, &kind_a, kind_b, layout, n, p, fixed) < 0)
        return NULL;
    if ((hits = PyList_New(0)) == NULL)
        goto fail;
    u64 count = 0, nhits = 0, visited = 0;
    do {
        if (passes(kind_a, &s)) {
            count++;
            if (kind_b < 0 || !passes(kind_b, &s)) {
                nhits++;
                if (PyList_GET_SIZE(hits) < cap && append_candidate(hits, &s) < 0)
                    goto fail;
            }
        }
        /* let Ctrl-C stop a long sweep */
        if ((++visited & 0xFFFF) == 0 && PyErr_CheckSignals() < 0)
            goto fail;
    } while (advance(&s));
    PyMem_Free(s.v);
    return Py_BuildValue("(KKN)", (unsigned long long)count, (unsigned long long)nhits,
                         hits);
fail:
    Py_XDECREF(hits);
    PyMem_Free(s.v);
    return NULL;
}

static PyMethodDef methods[] = {
    {"scan", scan, METH_VARARGS, "scan(layout_a, kind_b, n, p, fixed, cap) -> "
                                 "(count, hits, first cap hits)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckern",
    "pykern's axiom systems in C, swept by an unpruned odometer; "
    "homstruct._kernels wraps them in pykern's API.", -1, methods,
};

PyMODINIT_FUNC PyInit__ckern(void) { return PyModule_Create(&module); }
