/* Compiled search kernel: pykern._scan in C, over pykern's identity table.

   pykern._identities is the one place the axiom systems are written, and
   pykern._table encodes them as 64-bit ints: n, the twist offset al and
   the offset of kind b's first identity, then per identity its term count
   and, per term, its sign, a helper code (0 _ot, 1 _to, 2 _mult) and the
   helper's six slot arguments. scan() runs pykern._walk's depth-first
   walk, but files each identity by a probe: the deepest free slot the
   helpers read with every free slot set to 1, reading each twist entry
   first and skipping the reads behind a pinned zero. pykern files by the
   reduced polynomial instead; both filings are exact, so counts and sample
   streams match pykern's bit for bit. See pykern's module docstring for
   the flat candidate layout and the helpers. This file holds no kind
   names, no layout formula and no axiom.

   Entries are residues mod p < 2^32 held in 64-bit unsigned words, and
   every product of two residues is reduced at once, so no sum or product
   overflows at any dimension. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint64_t u64;
typedef int64_t i64;

enum { OT, TO, MULT };  /* positions in pykern._HELPERS */

typedef struct {
    u64 *v;            /* the candidate */
    Py_ssize_t *free;  /* its free slots, most significant first */
    int *depth;        /* per slot: its position in free, or -1 */
    const i64 *x;      /* the table; the identities of kind b start at x[b0] */
    Py_ssize_t *order, *end;  /* the identities of depth d (from -1), as
                                 offsets in x: order[end[d] .. end[d + 1]) */
    u64 *passed, *failed;  /* per tail length: the survivors, and those
                              of them that fail kind b */
    PyObject *hits;    /* the first cap hits */
    Py_ssize_t total, nfree, len, b0, last, cap;
    int n, al, probing, deepest;
    u64 p;
    unsigned visited;
} Space;

static inline u64 mulmod(u64 a, u64 b, u64 p) { return a * b % p; }

static inline u64 addmod(u64 a, u64 b, u64 p) { return a + b >= p ? a + b - p : a + b; }

/* v[slot]; while probing, also note the deepest free slot read */
static inline u64 rd(Space *s, i64 slot) {
    if (s->probing && s->depth[slot] > s->deepest)
        s->deepest = s->depth[slot];
    return s->v[slot];
}

/* the sum over a, b of x_a * y_b * v[outer + (a * ox + b * oy) * n + l] for
   x_a = v[x0 + a * xs] and y_b = v[y0 + b * ys]: pykern's contractions, with
   their read order and their skips of zero factors */
static u64 contract(Space *s, i64 outer, i64 x0, i64 xs, i64 y0, i64 ys, i64 ox, i64 oy,
                    i64 l) {
    u64 p = s->p, acc = 0;
    for (int a = 0; a < s->n; a++) {
        u64 xa = rd(s, x0 + a * xs);
        for (int b = 0; xa && b < s->n; b++) {
            u64 yb = rd(s, y0 + b * ys);
            if (yb)
                acc = addmod(acc, mulmod(mulmod(xa, yb, p),
                                         rd(s, outer + (a * ox + b * oy) * s->n + l), p), p);
        }
    }
    return acc;
}

/* helper t[0] of pykern._HELPERS on the arguments t[1 ..], mod p */
static u64 helper(Space *s, const i64 *t) {
    const i64 *a = t + 1, n = s->n, al = s->al;
    u64 p = s->p, acc = 0;
    switch (t[0]) {
    case OT:  /* a: outer, inner, i, j, k, l */
        return contract(s, a[0], al + a[4], n, a[1] + (a[2] * n + a[3]) * n, 1, 1, n, a[5]);
    case TO:
        return contract(s, a[0], al + a[2], n, a[1] + (a[3] * n + a[4]) * n, 1, n, 1, a[5]);
    default:  /* MULT; a: mu, i, j, k */
        for (int m = 0; m < n; m++) {
            u64 km = rd(s, al + a[3] * n + m);
            if (km)
                acc = addmod(acc, mulmod(km, rd(s, a[0] + (a[1] * n + a[2]) * n + m), p), p);
        }
        return addmod(acc, p - contract(s, a[0], al + a[1], n, al + a[2], n, n, 1, a[3]), p);
    }
}

/* does the identity at x[id] (its term count, then its terms) hold mod p? */
static int holds(Space *s, Py_ssize_t id) {
    const i64 *t = s->x + id + 1;
    u64 acc = 0;
    for (i64 k = 0; k < s->x[id]; k++, t += 8) {
        u64 h = helper(s, t + 1);
        acc = addmod(acc, t[0] > 0 ? h : s->p - h, s->p);
    }
    return acc == 0;
}

/* The identities of depth d: 0 when one of kind a fails; *bad is set when
   one of kind b does. */
static int check(Space *s, Py_ssize_t d, int *bad) {
    for (Py_ssize_t k = s->end[d]; k < s->end[d + 1]; k++) {
        if (s->order[k] < s->b0) {
            if (!holds(s, s->order[k]))
                return 0;
        } else if (!*bad && !holds(s, s->order[k]))
            *bad = 1;
    }
    return 1;
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

/* append the completions of slots[0 .. nslots), in lexicographic order,
   until the list holds cap */
static int collect(Space *s, const Py_ssize_t *slots, Py_ssize_t nslots) {
    if (nslots == 0)
        return append_candidate(s->hits, s);
    int rc = 0;
    for (u64 x = 0; rc == 0 && x < s->p && PyList_GET_SIZE(s->hits) < s->cap; x++) {
        s->v[slots[0]] = x;
        rc = collect(s, slots + 1, nslots - 1);
    }
    s->v[slots[0]] = 0;
    return rc;
}

/* pykern._walk from free slot d on, bad when an identity of kind b
   already fails: a failing identity of kind a drops the p^(nfree - d - 1)
   candidates below; past the deepest identity, every completion of the
   tail passes kind a, and fails kind b exactly when bad. */
static int descend(Space *s, Py_ssize_t d, int bad) {
    if (d > s->last) {
        s->passed[s->nfree - d]++;
        if (!bad && s->b0 < s->len)
            return 0;
        s->failed[s->nfree - d]++;
        return PyList_GET_SIZE(s->hits) < s->cap ? collect(s, s->free + d, s->nfree - d) : 0;
    }
    for (u64 x = 0; x < s->p; x++) {
        int below = bad;
        s->v[s->free[d]] = x;
        if (check(s, d, &below) && descend(s, d + 1, below) < 0)
            return -1;
        /* let Ctrl-C stop a long sweep */
        if ((++s->visited & 0xFFFF) == 0 && PyErr_CheckSignals() < 0)
            return -1;
    }
    s->v[s->free[d]] = 0;
    return 0;
}

/* File each identity at the depth of the deepest free slot it reads on a
   probe that reads every free slot as 1 (-1 when it reads none). */
static int plan(Space *s) {
    Py_ssize_t nids = 0, pos = 0, d, i, k;
    for (k = 3; k < s->len; k += 1 + 8 * s->x[k])
        nids++;
    /* one block: order, end, then each identity's depth */
    if ((s->order = PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)(2 * nids + s->nfree + 2)))
            == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    s->end = s->order + nids + 1;
    Py_ssize_t *depth = s->end + s->nfree + 1;
    for (d = 0; d < s->nfree; d++)
        s->v[s->free[d]] = 1;
    s->probing = 1;
    for (i = 0, k = 3; i < nids; i++, k += 1 + 8 * s->x[k]) {
        s->deepest = -1;
        if (s->nfree > 0)
            holds(s, k);
        depth[i] = s->deepest;
    }
    s->probing = 0;
    for (d = 0; d < s->nfree; d++)
        s->v[s->free[d]] = 0;
    s->end[-1] = 0;
    for (d = -1; d < s->nfree; d++) {
        for (i = 0, k = 3; i < nids; i++, k += 1 + 8 * s->x[k])
            if (depth[i] == d) {
                s->order[pos++] = k;
                s->last = d;
            }
        s->end[d + 1] = pos;
    }
    return 0;
}

/* the candidates below a walk's survivors, from their number per tail
   length: the sum over t of survivors[t] * p^t, as a Python int */
static PyObject *candidates(const u64 *survivors, Py_ssize_t len, u64 p) {
    PyObject *sum = PyLong_FromLong(0), *base = PyLong_FromUnsignedLongLong(p);
    for (Py_ssize_t t = len - 1; t >= 0 && sum != NULL && base != NULL; t--) {
        PyObject *c = PyLong_FromUnsignedLongLong(survivors[t]);
        PyObject *scaled = c == NULL ? NULL : PyNumber_Multiply(sum, base);
        Py_SETREF(sum, scaled == NULL ? NULL : PyNumber_Add(scaled, c));
        Py_XDECREF(scaled);
        Py_XDECREF(c);
    }
    if (base == NULL)
        Py_CLEAR(sum);
    Py_XDECREF(base);
    return sum;
}

/* scan(table, p, fixed, cap) -> (count, failing, hits): pykern._scan on the
   template fixed, 64-bit ints where a negative entry marks a free slot and
   every other one is a residue mod p. count is how many candidates pass
   kind a, failing how many of those fail kind b, and hits the first cap
   of those (of all that pass kind a when the table has no kind b), in
   lexicographic order. */
static PyObject *scan(PyObject *self, PyObject *args) {
    Py_buffer table, f_buf;
    PyObject *result = NULL;
    long long p;
    Space s = {0};
    if (!PyArg_ParseTuple(args, "y*Ly*n", &table, &p, &f_buf, &s.cap))
        return NULL;
    const i64 *fixed = f_buf.buf;
    s.x = table.buf;
    s.len = table.len / 8;
    s.p = (u64)p;
    s.total = f_buf.len / 8;
    s.n = s.len < 3 ? 0 : (int)s.x[0];
    s.al = s.len < 3 ? 0 : (int)s.x[1];
    s.b0 = s.len < 3 ? 0 : s.x[2];
    s.last = -1;
    /* the table comes from pykern._table; its layout must be the candidate's */
    if (p < 2 || p >= (1LL << 32) || s.total > INT_MAX || s.n < 1 || s.al < 0
            || s.total != s.al + (i64)s.n * s.n || s.b0 < 3 || s.b0 > s.len) {
        PyErr_SetString(PyExc_ValueError, "p is not in [2, 2**32), or the table's layout "
                                          "is not the candidate's");
        goto done;
    }
    /* one block: the candidate, its free slots, the tallies, the depths */
    if ((s.v = PyMem_Calloc(5 * (size_t)s.total + 2, sizeof(u64))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s.free = (Py_ssize_t *)(s.v + s.total);
    s.passed = (u64 *)(s.free + s.total);
    s.depth = (int *)(s.passed + 2 * s.total + 2);
    for (Py_ssize_t t = 0; t < s.total; t++) {
        s.depth[t] = fixed[t] < 0 ? (int)s.nfree : -1;
        if (fixed[t] < 0)
            s.free[s.nfree++] = t;
        s.v[t] = fixed[t] < 0 ? 0 : (u64)fixed[t];
    }
    s.failed = s.passed + s.nfree + 1;
    int bad = 0;
    if ((s.hits = PyList_New(0)) == NULL || plan(&s) < 0
            || (check(&s, -1, &bad) && descend(&s, 0, bad) < 0))
        goto done;
    result = Py_BuildValue("(NNO)", candidates(s.passed, s.nfree + 1, s.p),
                           candidates(s.failed, s.nfree + 1, s.p), s.hits);
done:
    Py_XDECREF(s.hits);
    PyMem_Free(s.order);
    PyMem_Free(s.v);
    PyBuffer_Release(&table);
    PyBuffer_Release(&f_buf);
    return result;
}

static PyMethodDef methods[] = {
    {"scan", scan, METH_VARARGS, "scan(table, p, fixed, cap) -> (count, failing, hits)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckern",
    "pykern._scan in C, over pykern's identity tables; homstruct._kernels "
    "runs pykern's drivers over it.", -1, methods,
};

PyMODINIT_FUNC PyInit__ckern(void) { return PyModule_Create(&module); }
