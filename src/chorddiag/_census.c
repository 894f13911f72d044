/* Compiled census kernel.
 *
 * Same contract as the pure-Python twin in _census_py.py: one export,
 * class_census(n, root_partner=0, k=2), with the counts of the j-connected
 * diagrams for j = 0..k. Same design too: one walker, place(), enumerates
 * every rooted diagram on n chords (smallest free position matched first,
 * partners tried left to right) and reads connectivity off the intervals
 * of positions, with no graph search. It scans the positions left to
 * right, opening a chord at each free one and closing one at each taken
 * one, and keeps the external count of every interval [a, b-1] ending at
 * the current position b: the number of its endpoints whose partner lies
 * outside it. Before each close it tests two facts:
 *   - a diagram is disconnected exactly when some proper interval is
 *     closed (external count 0); such an interval is fixed once its last
 *     position closes, so the subtree is skipped and its (2m-1)!!
 *     completions, m chords still to place, are added to level 0;
 *   - a connected diagram on n >= 2 chords has a cut chord exactly when
 *     some interval of 3..2n-3 positions has one external endpoint; in a
 *     connected diagram it ends at a close whose partner lies in it, so the
 *     test sets the subtree's cut flag.
 * Every diagram the walk reaches is therefore connected, and for k <= 2 its
 * level is read off the cut flag. Only for k >= 3 does a leaf without a cut
 * build its crossing masks and search the graph left by each removal of
 * 2..k-1 chords. The walk runs without the GIL, so root-partner partitions
 * of one census overlap on a thread pool.
 *
 * After opening a chord at the free position b, the closes at b+1..f-1,
 * where f is the next free position, have partners before b and do not
 * depend on b's partner. So they run once, before the loop over partners
 * j >= f, and each child starts at f. This hoisted run keeps the cut test
 * and drops the closed test, which cannot fire there: each interval it
 * would test, [a, q] with a <= p < b < q, contains b, whose partner lies
 * beyond q. When b+1 is free and n >= 2, the child j = b+1 is not entered:
 * the chord (b, b+1) closes the proper interval [b, b+1], so its
 * completions go to level 0 at once. When the chord at b is the last one,
 * f is the only free position left, so no child is entered either: the
 * parent pairs b with f, runs the closes f..2n-1 with both tests through
 * the same close_run() as the leading closes, counts the one diagram at
 * level 0 on a closed hit and classifies it otherwise. A root chord to
 * position 2n crosses no chord, so for n >= 2 census() puts all rest[1]
 * diagrams of that partition at level 0 without a walk.
 *
 * The counts live in one unsigned __int128: field a, WIDTH bits wide with a
 * spare top bit, holds the external count of [a, b-1]. Opening a chord at b
 * adds 1 to fields 0..b; closing one at b with partner p adds 1 to fields
 * p+1..b and takes 1 from fields 0..p. A field a <= p about to drop to 0
 * marks [a, b] closed, and one about to drop to 1 marks a cut when [a, b]
 * is short enough. Each is found by the zero-field test
 * (y - ones) & ~y & highs on y = state ^ value, with ones only over the
 * tested fields: a zero field below them would otherwise borrow and give a
 * false hit.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAX_CHORDS 10
#define WIDTH 6  /* counts stay at most n, below 2^5; 2 * MAX_CHORDS fields fill 120 bits */

typedef unsigned int mask_t;
typedef unsigned long long count_t;
typedef unsigned __int128 state_t;

/* The tests and the update for closing the chord (p, b). */
typedef struct {
    state_t closed, closed_highs;   /* ones and top bits over the fields tested for 1 */
    state_t twos, near, near_highs; /* twos, ones and top bits over those tested for 2 */
    state_t update;
} Close;

typedef struct {
    int n, size, top;
    int partner[2 * MAX_CHORDS];     /* 0-based partner of each position, -1 when free */
    state_t opens[2 * MAX_CHORDS];   /* ones over fields 0..b */
    Close closes[2 * MAX_CHORDS][2 * MAX_CHORDS];  /* [b][p], p < b */
    const mask_t *kept;              /* chords left after removing 2 <= r < k of them, r ascending */
    Py_ssize_t nkept;
    count_t rest[MAX_CHORDS + 1];    /* (2(n-c)-1)!!, completions of c placed chords */
    count_t hist[MAX_CHORDS + 1];    /* diagrams by level */
} Walk;

static state_t ones(int lo, int hi)
{
    state_t x = 0;
    for (int a = lo; a <= hi; a++)
        x |= (state_t)1 << (a * WIDTH);
    return x;
}

static int connected(const mask_t *adj, mask_t mask)
{
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

/* Level of a finished diagram without a cut chord, for k >= 3: the first
 * removal of 2..k-1 chords that disconnects it, else min(k, n). Crossing
 * masks come from one sweep: a chord crosses exactly the chords in which
 * the open set at its opening and at its closing differ. */
static int removal_level(const Walk *w)
{
    int chord[2 * MAX_CHORDS], c = 0;
    mask_t adj[MAX_CHORDS], at_open[MAX_CHORDS], open = 0;
    for (int i = 0; i < w->size; i++) {
        int q = w->partner[i];
        if (q > i) {
            chord[i] = c;
            at_open[c] = open;
            open |= 1u << c++;
        }
        else {
            int d = chord[q];
            open ^= 1u << d;
            adj[d] = at_open[d] ^ open;
        }
    }
    for (Py_ssize_t x = 0; x < w->nkept; x++)
        if (!connected(adj, w->kept[x]))
            return w->n - __builtin_popcount(w->kept[x]);
    return w->top;
}

/* Run the closes from b on, up to the next free position or the end, with
 * both tests. Returns that position, or -1 when a proper interval closes. */
static inline int close_run(const Walk *w, int b, state_t *state, int *cut)
{
    int p;
    for (; b < w->size && (p = w->partner[b]) >= 0; b++) {
        const Close *t = &w->closes[b][p];
        state_t y = *state ^ t->closed;
        if ((y - t->closed) & ~y & t->closed_highs)
            return -1;
        if (!*cut) {
            y = *state ^ t->twos;
            *cut = ((y - t->near) & ~y & t->near_highs) != 0;
        }
        *state += t->update;
    }
    return b;
}

/* Level of a finished connected diagram. */
static inline int leaf_level(const Walk *w, int cut)
{
    return cut ? 1 : w->nkept ? removal_level(w) : w->top;
}

/* Close the taken positions from b on, then open a chord c at the first
 * free one, run the closes up to the next free position f once, and try
 * each free partner j >= f for it; each child starts at f. The last chord
 * can only take f, so it is placed and its closes run here, with no child. */
static void place(Walk *w, int b, int c, state_t state, int cut)
{
    int p;
    b = close_run(w, b, &state, &cut);
    if (b < 0) {
        w->hist[0] += w->rest[c];
        return;
    }
    if (b == w->size) {
        w->hist[leaf_level(w, cut)]++;
        return;
    }
    state += w->opens[b];
    int f = b + 1;
    while ((p = w->partner[f]) >= 0) {  /* b's partner is still free, so f < size */
        const Close *t = &w->closes[f][p];
        if (!cut) {
            state_t y = state ^ t->twos;
            cut = ((y - t->near) & ~y & t->near_highs) != 0;
        }
        state += t->update;
        f++;
    }
    int start = f;
    if (f == b + 1 && w->n >= 2) {  /* (b, b+1) closes a proper interval */
        w->hist[0] += w->rest[c + 1];
        start++;
    }
    if (c + 1 == w->n) {  /* the last chord: f is the only free partner left */
        if (start == f) {
            w->partner[b] = f;
            w->partner[f] = b;
            w->hist[close_run(w, f, &state, &cut) < 0 ? 0 : leaf_level(w, cut)]++;
            w->partner[b] = w->partner[f] = -1;
        }
        return;
    }
    for (int j = start; j < w->size; j++) {
        if (w->partner[j] >= 0)
            continue;
        w->partner[b] = j;
        w->partner[j] = b;
        place(w, f, c + 1, state, cut);
        w->partner[j] = -1;
    }
    w->partner[b] = -1;
}

/* counts[j] = number of j-connected diagrams on n chords, for j = 0..k;
 * root_partner (1-based, 0 for none) pins the partner of position 1.
 * Returns -1 with an exception set on bad input, so counts, which has room
 * for MAX_CHORDS + 1 levels, is never written past its end. */
static int census(int n, int k, int root_partner, count_t *counts)
{
    if (n < 0 || n > MAX_CHORDS) {
        PyErr_Format(PyExc_ValueError,
                     "n must lie in 0..%d for the compiled kernel", MAX_CHORDS);
        return -1;
    }
    if (k < 1 || k > MAX_CHORDS) {
        PyErr_Format(PyExc_ValueError,
                     "k must be at least 1 and at most %d for the compiled kernel",
                     MAX_CHORDS);
        return -1;
    }
    int size = 2 * n;
    if (root_partner && !(2 <= root_partner && root_partner <= size)) {
        PyErr_Format(PyExc_ValueError, "root partner must lie in 2..%d", size);
        return -1;
    }
    Walk *w = PyMem_Calloc(1, sizeof *w);
    mask_t *kept = PyMem_New(mask_t, (size_t)1 << n);
    if (w == NULL || kept == NULL) {
        PyMem_Free(w);
        PyMem_Free(kept);
        PyErr_NoMemory();
        return -1;
    }
    w->n = n;
    w->size = size;
    w->top = k < n ? k : n;
    mask_t full = (1u << n) - 1u;
    for (int r = 2; r < k && r < n; r++)
        for (mask_t removed = 1; removed < full; removed++)
            if (__builtin_popcount(removed) == r)
                kept[w->nkept++] = full & ~removed;
    w->kept = kept;
    for (int b = 0; b < size; b++) {
        w->partner[b] = -1;
        w->opens[b] = ones(0, b);
        for (int p = 0; p < b; p++) {
            Close *t = &w->closes[b][p];
            /* [0, 2n-1] is the whole diagram; a cut interval has at most 2n-3 positions */
            t->closed = ones(b == size - 1 ? 1 : 0, p);
            t->closed_highs = t->closed << (WIDTH - 1);
            t->near = ones(b - size + 4 > 0 ? b - size + 4 : 0, p);
            t->twos = t->near << 1;
            t->near_highs = t->near << (WIDTH - 1);
            t->update = ones(p + 1, b) - ones(0, p);
        }
    }
    w->rest[n] = 1;
    for (int c = n - 1; c >= 0; c--)
        w->rest[c] = w->rest[c + 1] * (count_t)(2 * (n - c) - 1);

    Py_BEGIN_ALLOW_THREADS
    if (root_partner == size && n >= 2)  /* the root chord (1, 2n) crosses nothing */
        w->hist[0] = w->rest[1];
    else if (root_partner) {
        w->partner[0] = root_partner - 1;
        w->partner[root_partner - 1] = 0;
        place(w, 1, 1, w->opens[0], 0);
    }
    else
        place(w, 0, 0, 0, 0);
    Py_END_ALLOW_THREADS

    counts[k] = w->hist[k];
    for (int j = k - 1; j >= 0; j--)
        counts[j] = counts[j + 1] + w->hist[j];
    PyMem_Free(kept);
    PyMem_Free(w);
    return 0;
}

static PyObject *class_census(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "root_partner", "k", NULL};
    int n, root_partner = 0, k = 2;
    count_t counts[MAX_CHORDS + 1];
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "i|ii:class_census", kwlist,
                                     &n, &root_partner, &k)
        || census(n, k, root_partner, counts) < 0)
        return NULL;
    PyObject *result = PyTuple_New(k + 1);
    for (int j = 0; result != NULL && j <= k; j++) {
        PyObject *count = PyLong_FromUnsignedLongLong(counts[j]);
        if (count == NULL)
            Py_CLEAR(result);
        else
            PyTuple_SET_ITEM(result, j, count);
    }
    return result;
}

static PyMethodDef census_methods[] = {
    {"class_census", (PyCFunction)(void (*)(void))class_census,
     METH_VARARGS | METH_KEYWORDS,
     "class_census(n, root_partner=0, k=2)\n--\n\n"
     "Counts of the j-connected diagrams on n chords for j = 0..k, so by\n"
     "default (total, connected, 2-connected); root_partner (1-based\n"
     "position, 0 for none) pins the partner of position 1."},
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
