/* Compiled census kernel.
 *
 * Same contract as the pure-Python twin in _census_py.py, and the same
 * design: one walker, place(), enumerates every rooted diagram on n chords
 * (smallest free position matched first, partners tried left to right) and
 * keeps each chord's crossing mask current as chords are placed; one
 * classifier, level(), gives every finished diagram the highest j <= k for
 * which it is j-connected. The walk runs without the GIL, so root-partner
 * partitions of one census overlap on a thread pool.
 *
 * As in the twin, two O(1) prunes skip subtrees in which every diagram is
 * disconnected and add their (2m-1)!! diagrams, m chords still to place, to
 * level 0 in bulk:
 *   - adjacent positions: for n >= 2 a chord on (i, i+1) has no endpoint
 *     between its own, so it crosses nothing and is isolated;
 *   - closed prefix: when the smallest free position i equals 2c with
 *     c >= 1 chords placed, the positions before i hold both ends of every
 *     placed chord, and no chord still to place can cross them.
 * Every diagram that may be connected still reaches level(), so the
 * connected and k-connected counts stay enumeration counts.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAX_CHORDS 16

typedef unsigned int mask_t;
typedef unsigned long long count_t;

typedef struct {
    int n, size, k;
    mask_t full;
    int owner[2 * MAX_CHORDS];  /* chord whose right endpoint sits at a position */
    mask_t adj[MAX_CHORDS];     /* crossing mask of each chord, by left endpoint */
    const mask_t *kept;         /* chords left after removing r < k of them, r ascending */
    Py_ssize_t nkept;
    count_t rest[MAX_CHORDS + 1];  /* (2(n-c)-1)!!, completions of c placed chords */
    count_t hist[MAX_CHORDS + 1];  /* diagrams by level */
} Walk;

static int connected(const mask_t *adj, mask_t mask)
{
    if (!mask)
        return 0;
    mask_t comp = mask & (~mask + 1u), frontier = comp;
    while (frontier) {
        mask_t next = 0;
        for (mask_t f = frontier; f; f &= f - 1)
            next |= adj[__builtin_ctz(f)];
        frontier = next & mask & ~comp;
        comp |= frontier;
    }
    return comp == mask;
}

/* Highest j <= k such that the diagram is j-connected: connected, at least
 * j chords, and no removal of fewer than j chords disconnects it. */
static int level(const Walk *w)
{
    if (!connected(w->adj, w->full))
        return 0;
    for (Py_ssize_t x = 0; x < w->nkept; x++)
        if (!connected(w->adj, w->kept[x]))
            return w->n - __builtin_popcount(w->kept[x]);
    return w->k < w->n ? w->k : w->n;
}

/* Match the smallest free position at or after i with the new chord c.
 * The chord placed at (i, j) crosses exactly the placed chords whose right
 * endpoint lies in (i, j); those bits are set here and cleared on return. */
static void place(Walk *w, int i, int c)
{
    while (i < w->size && w->owner[i] >= 0)
        i++;
    if (i == w->size) {
        w->hist[level(w)]++;
        return;
    }
    if (c && i == 2 * c) {  /* closed prefix */
        w->hist[0] += w->rest[c];
        return;
    }
    mask_t bit = 1u << c, cross = 0;
    int first = i + 1;
    if (w->owner[first] < 0 && w->n > 1) {  /* the chord (i, i+1) crosses nothing */
        w->hist[0] += w->rest[c + 1];
        first++;
    }
    for (int j = first; j < w->size; j++) {
        int d = w->owner[j];
        if (d >= 0) {
            cross |= 1u << d;
            continue;
        }
        w->owner[j] = c;
        w->adj[c] = cross;
        for (mask_t m = cross; m; m &= m - 1)
            w->adj[__builtin_ctz(m)] |= bit;
        place(w, i + 1, c + 1);
        for (mask_t m = cross; m; m &= m - 1)
            w->adj[__builtin_ctz(m)] ^= bit;
        w->owner[j] = -1;
    }
}

/* counts[j] = number of j-connected diagrams on n chords, for j = 0..k
 * (k <= MAX_CHORDS); root_partner (1-based, 0 for none) pins the partner of
 * position 1. Returns -1 with an exception set on bad input. */
static int census(int n, int k, int root_partner, count_t *counts)
{
    if (n < 0 || n > MAX_CHORDS) {
        PyErr_Format(PyExc_ValueError,
                     "n must lie in 0..%d for the compiled kernel", MAX_CHORDS);
        return -1;
    }
    Walk w = {.n = n, .size = 2 * n, .k = k, .full = (1u << n) - 1u};
    if (root_partner && !(2 <= root_partner && root_partner <= w.size)) {
        PyErr_Format(PyExc_ValueError, "root partner must lie in 2..%d", w.size);
        return -1;
    }
    mask_t *kept = PyMem_New(mask_t, (size_t)1 << n);
    if (kept == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (int r = 1; r < k && r < n; r++)
        for (mask_t removed = 1; removed < w.full; removed++)
            if (__builtin_popcount(removed) == r)
                kept[w.nkept++] = w.full & ~removed;
    w.kept = kept;
    for (int j = 0; j < w.size; j++)
        w.owner[j] = -1;
    w.rest[n] = 1;
    for (int c = n - 1; c >= 0; c--)
        w.rest[c] = w.rest[c + 1] * (count_t)(2 * (n - c) - 1);

    Py_BEGIN_ALLOW_THREADS
    if (root_partner) {
        w.owner[root_partner - 1] = 0;
        place(&w, 1, 1);
    }
    else
        place(&w, 0, 0);
    Py_END_ALLOW_THREADS

    PyMem_Free(kept);
    counts[k] = w.hist[k];
    for (int j = k - 1; j >= 0; j--)
        counts[j] = counts[j + 1] + w.hist[j];
    return 0;
}

static PyObject *class_census(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "root_partner", NULL};
    int n, root_partner = 0;
    count_t counts[3];
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "i|i:class_census", kwlist,
                                     &n, &root_partner)
        || census(n, 2, root_partner, counts) < 0)
        return NULL;
    return Py_BuildValue("(KKK)", counts[0], counts[1], counts[2]);
}

static PyObject *k_connected_count(PyObject *module, PyObject *args)
{
    int n, k;
    count_t counts[MAX_CHORDS + 1];
    if (!PyArg_ParseTuple(args, "ii:k_connected_count", &n, &k))
        return NULL;
    if (k < 1) {
        PyErr_SetString(PyExc_ValueError, "k must be at least 1");
        return NULL;
    }
    if (0 <= n && n < k)
        return PyLong_FromLong(0);
    if (census(n, k, 0, counts) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(counts[k]);
}

static PyMethodDef census_methods[] = {
    {"class_census", (PyCFunction)(void (*)(void))class_census,
     METH_VARARGS | METH_KEYWORDS,
     "class_census(n, root_partner=0)\n--\n\n"
     "(total, connected, 2-connected) over all diagrams on n chords;\n"
     "root_partner (1-based position, 0 for none) pins the partner of position 1."},
    {"k_connected_count", k_connected_count, METH_VARARGS,
     "k_connected_count(n, k)\n--\n\n"
     "Count of k-connected diagrams on n chords (removal characterization)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef census_module = {
    PyModuleDef_HEAD_INIT, "_census",
    "Compiled census kernel; same contract as chorddiag._census_py.", -1,
    census_methods
};

PyMODINIT_FUNC PyInit__census(void)
{
    return PyModule_Create(&census_module);
}
