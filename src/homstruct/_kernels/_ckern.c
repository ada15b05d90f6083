/* Compiled search kernel: pykern._scan in C, over pykern's staged program.

   pykern._identities is the one place the axiom systems are written, and
   pykern._program specialises them to a sweep's pinned product slots
   (stages 0 and 1 of pykern's module docstring). pykern._flat_program
   encodes that program as 64-bit ints: per identity, its positions, each a
   product key (x, y) over the free slots and slot total, one past the
   candidate, which holds a constant 1; per twist monomial (a pair of twist
   or constant-1 slots), its coefficient mod p at each position where it
   has one. reduced() is stage 2 on each template, as pykern._reduced and
   pykern._filed, and scan() runs pykern._below's depth-first walk over the
   result, so counts and sample streams match pykern's bit for bit. The
   walk stops at depth last + 1, past the deepest identity, so every
   survivor has the same free tail and stands for p^(nfree - last - 1)
   candidates: it counts survivors, and scan() multiplies once. See
   pykern's module docstring for the flat candidate layout. This file holds
   no kind names, no layout formula and no axiom.

   Entries are residues mod p < 2^32 held in 64-bit unsigned words, and
   every product of two residues is reduced at once (times()), so no sum
   or product overflows at any dimension. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint64_t u64;
typedef int64_t i64;

typedef struct {
    u64 *v;            /* the candidate, then the constant-1 slot */
    Py_ssize_t *free;  /* its free slots, most significant first */
    int *depth;        /* per slot, and the constant-1 slot: its position in
                          free, or -1 */
    u64 *poly;         /* the filed identities: per identity its term
                          count, then its terms (c, x, y) */
    Py_ssize_t *order, *end;  /* the identities of depth d (from -1):
                                 order[end[d] .. end[d + 1]), each the offset
                                 in poly of one of kind a or the complement
                                 (~) of that of one of kind b */
    u64 passed, failed;  /* the survivors, and those of them that fail
                            kind b */
    PyObject *hits;    /* the first cap hits */
    Py_ssize_t total, nfree, last, cap;
    u64 p;
    unsigned visited;
} Space;

static inline u64 addmod(u64 a, u64 b, u64 p) { return a + b >= p ? a + b - p : a + b; }

/* c * x mod p for residues c and x, with no division when either is 0 or 1 */
static inline u64 times(u64 c, u64 x, u64 p) { return c > 1 && x > 1 ? c * x % p : c * x; }

/* does the filed identity at poly[id] hold mod p? */
static int holds(const Space *s, Py_ssize_t id) {
    const u64 *m = s->poly + id + 1, *v = s->v, p = s->p;
    u64 acc = 0;
    for (u64 k = 0; k < s->poly[id]; k++, m += 3)
        acc = addmod(acc, times(times(m[0], v[m[1]], p), v[m[2]], p), p);
    return acc == 0;
}

/* The identities of depth d: 0 when one of kind a fails; *bad is set when
   one of kind b does. */
static int check(Space *s, Py_ssize_t d, int *bad) {
    for (Py_ssize_t k = s->end[d]; k < s->end[d + 1]; k++) {
        Py_ssize_t id = s->order[k];
        if (id >= 0 && !holds(s, id))
            return 0;
        *bad = *bad || (id < 0 && !holds(s, ~id));
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

/* pykern._below from free slot d on, bad when an identity of kind b
   already fails: a failing identity of kind a drops the p^(nfree - d - 1)
   candidates below; past the deepest identity, every completion of the
   tail passes kind a, and fails kind b exactly when bad. */
static int descend(Space *s, Py_ssize_t d, int bad) {
    if (d > s->last) {
        s->passed++;
        if (!bad)
            return 0;
        s->failed++;
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

/* Stage 2 on the template, as pykern._reduced and pykern._filed: x[0 ..
   len) is pykern._flat_program's encoding of stage 1. Each twist monomial
   is evaluated once and adds its coefficients, times its value, to its
   positions mod p, and each identity that does not vanish is filed at
   the depth of the deepest free slot it reads (-1 for none). */
static int reduced(Space *s, const i64 *x, Py_ssize_t len) {
    Py_ssize_t top = 0, d, i, j, k;
    u64 p = s->p, one = (u64)s->total;
    /* the header, the bounds and the positions' slots x and y fit */
    if (len < 3 || x[0] < 0 || x[1] < 0 || x[2] < 0 || x[2] > x[1] || x[1] >= len - 3
            || x[0] > (len - 4 - x[1]) / 2)
        goto malformed;
    Py_ssize_t npos = x[0], nids = x[1];
    const i64 *bound = x + 3, *xs = bound + nids + 1, *ys = xs + npos, *t = ys + npos,
              *stop = x + len;
    /* poly: per identity its head and at most its positions' terms, then
       the positions' coefficients; one block: order, end, then each
       identity's depth (-2 when it vanishes) and offset */
    s->poly = PyMem_Calloc((size_t)(nids + 4 * npos + 1), sizeof(u64));
    s->order = PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)(3 * nids + s->nfree + 2));
    if (s->poly == NULL || s->order == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    u64 *res = s->poly + nids + 3 * npos;
    s->end = s->order + nids + 1;
    Py_ssize_t *depth = s->end + s->nfree + 1, *at = depth + nids;
    for (k = 0; k < 2 * npos; k++)
        if ((u64)xs[k] > one)
            goto malformed;  /* a slot outside the candidate */
    for (; t < stop; t += 3 + 2 * t[2]) {
        if (stop - t < 3 || t[2] < 0 || t[2] > (stop - t - 3) / 2 || (u64)t[0] > one
                || (u64)t[1] > one || s->depth[t[0]] >= 0 || s->depth[t[1]] >= 0)
            goto malformed;  /* a count past the end, or a twist slot outside or free */
        u64 value = times(s->v[t[0]], s->v[t[1]], p);
        for (j = 0; j < t[2]; j++) {
            i64 pos = t[3 + j], c = t[3 + t[2] + j];
            if ((u64)pos >= (u64)npos || (u64)c >= p)
                goto malformed;
            res[pos] = addmod(res[pos], times((u64)c, value, p), p);
        }
    }
    if (bound[0] != 0 || bound[nids] != npos)
        goto malformed;
    for (i = 0; i < nids; i++) {
        u64 *head = s->poly + top, *m = head + 1;
        if (bound[i + 1] < bound[i])
            goto malformed;
        for (depth[i] = -1, j = bound[i]; j < bound[i + 1]; j++) {
            if (res[j] == 0)
                continue;  /* the coefficient vanishes mod p */
            m[0] = res[j];
            m[1] = (u64)xs[j];
            m[2] = (u64)ys[j];
            m += 3;
            depth[i] = s->depth[xs[j]];  /* x is the deeper slot; positions ascend */
        }
        *head = (u64)(m - head - 1) / 3;
        at[i] = i < x[2] ? top : ~top;
        top = *head ? m - s->poly : top;
        depth[i] = *head ? depth[i] : -2;  /* an identity that vanishes is dropped */
    }
    s->end[-1] = 0;
    for (d = -1, k = 0; d < s->nfree; d++) {
        for (i = 0; i < nids; i++)
            if (depth[i] == d) {
                s->order[k++] = at[i];
                s->last = d;
            }
        s->end[d + 1] = k;
    }
    return 0;
malformed:
    PyErr_SetString(PyExc_ValueError, "the program is not a run of identities over the "
                                      "template's slots, its twist monomials pinned");
    return -1;
}

/* survivors * p^(nfree - last - 1): the candidates below a walk's
   survivors, as a Python int */
static PyObject *candidates(const Space *s, u64 survivors) {
    PyObject *n = PyLong_FromUnsignedLongLong(survivors), *p = PyLong_FromUnsignedLongLong(s->p),
             *t = PyLong_FromSsize_t(s->nfree - s->last - 1);
    PyObject *every = n && p && t ? PyNumber_Power(p, t, Py_None) : NULL;
    PyObject *count = every ? PyNumber_Multiply(n, every) : NULL;
    Py_XDECREF(n);
    Py_XDECREF(p);
    Py_XDECREF(t);
    Py_XDECREF(every);
    return count;
}

/* scan(program, p, fixed, cap) -> (count, failing, hits): pykern._scan on
   the template fixed, 64-bit ints where a negative entry marks a free slot and
   every other one is a residue mod p. count is how many candidates pass
   kind a, failing how many of those fail kind b, and hits the first cap
   of those, in lexicographic order. A sweep's kind b is the one identity
   1 = 0, which every candidate fails; program is pykern._flat_program's. */
static PyObject *scan(PyObject *self, PyObject *args) {
    Py_buffer program, f_buf;
    PyObject *result = NULL;
    long long p;
    Space s = {0};
    if (!PyArg_ParseTuple(args, "y*Ly*n", &program, &p, &f_buf, &s.cap))
        return NULL;
    const i64 *fixed = f_buf.buf;
    s.p = (u64)p;
    s.total = f_buf.len / 8;
    s.last = -1;
    if (p < 2 || p >= (1LL << 32) || s.total > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "p is not in [2, 2**32), or the candidate is too "
                                          "long");
        goto done;
    }
    /* one block: the candidate and the constant-1 slot, its free slots, the
       depths */
    if ((s.v = PyMem_Calloc(3 * (size_t)s.total + 2, sizeof(u64))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s.free = (Py_ssize_t *)(s.v + s.total + 1);
    s.depth = (int *)(s.free + s.total);
    for (Py_ssize_t t = 0; t < s.total; t++) {
        s.depth[t] = fixed[t] < 0 ? (int)s.nfree : -1;
        if (fixed[t] < 0)
            s.free[s.nfree++] = t;
        s.v[t] = fixed[t] < 0 ? 0 : (u64)fixed[t];
    }
    s.v[s.total] = 1;
    s.depth[s.total] = -1;
    int bad = 0;
    if ((s.hits = PyList_New(0)) == NULL || reduced(&s, program.buf, program.len / 8) < 0
            || (check(&s, -1, &bad) && descend(&s, 0, bad) < 0))
        goto done;
    result = Py_BuildValue("(NNO)", candidates(&s, s.passed), candidates(&s, s.failed),
                           s.hits);
done:
    Py_XDECREF(s.hits);
    PyMem_Free(s.order);
    PyMem_Free(s.poly);
    PyMem_Free(s.v);
    PyBuffer_Release(&program);
    PyBuffer_Release(&f_buf);
    return result;
}

static PyMethodDef methods[] = {
    {"scan", scan, METH_VARARGS, "scan(program, p, fixed, cap) -> (count, failing, hits)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckern",
    "pykern._scan in C, over pykern's staged programs; homstruct._kernels "
    "runs pykern's drivers over it.", -1, methods,
};

PyMODINIT_FUNC PyInit__ckern(void) { return PyModule_Create(&module); }
