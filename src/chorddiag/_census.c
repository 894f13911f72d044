/* Compiled census kernel.
 *
 * Same contract as the pure-Python twin in _census_py.py: one export,
 * class_census(n, root_partner=0, k=2, shortest=0), with the counts of the
 * j-connected diagrams for j = 0..k. Same design too: one walker,
 * place(), enumerates every rooted diagram on n chords (smallest free
 * position matched first, partners tried left to right) and reads
 * connectivity off the intervals of positions, with no graph search. It
 * scans the positions left to right, opening a chord at each free one and
 * closing one at each taken one, and keeps the external count of every
 * interval [a, b-1] ending at the current position b: the number of its
 * endpoints whose partner lies outside it. Before each close it tests two
 * facts:
 *   - a diagram is disconnected exactly when some proper interval is
 *     closed (external count 0); such an interval is fixed once its last
 *     position closes, so the subtree, all of whose completions are
 *     disconnected, is left unwalked;
 *   - a connected diagram's level is the least of n and e(I) over the
 *     intervals I with a chord wholly inside and one wholly outside (e = 1
 *     gives the cut chords); the least e is reached at an interval that
 *     ends with a close whose partner lies in it, so the walk carries a
 *     level, starting at min(k, n), and before closing (p, b) lowers it to
 *     the least v below it for which some [a, b], a <= p, of at most
 *     2n-v-2 positions has e = v.
 * Every diagram the walk reaches is therefore connected, and its level is
 * read off at the leaf with no graph search. The walk runs without the
 * GIL; the oracle runs the walks of one census in forked processes.
 *
 * After opening a chord at the free position b, the closes at b+1..f-1,
 * where f is the next free position, have partners before b and do not
 * depend on b's partner. So they run once, before the loop over partners
 * j >= f, and each child starts at f. This hoisted run keeps the level
 * tests and drops the closed test, which cannot fire there: each interval it
 * would test, [a, q] with a <= p < b < q, contains b, whose partner lies
 * beyond q. When b+1 is free and n >= 2, the child j = b+1 is not entered:
 * the chord (b, b+1) closes the proper interval [b, b+1], so all of its
 * completions are disconnected. When the chord at b is the last one, f is
 * the only free position left, so no child is entered either: the parent
 * pairs b with f, runs the closes f..2n-1 with both tests through the same
 * close_run() as the leading closes and classifies the one diagram unless
 * a closed hit shows it disconnected. census() walks root partner 2n as 2
 * and folds every pinned partition but 2's onto itself (see there).
 *
 * The counts live in one unsigned __int128: field a, WIDTH bits wide with a
 * spare top bit, holds the external count of [a, b-1]. Opening a chord at b
 * adds 1 to fields 0..b; closing one at b with partner p adds 1 to fields
 * p+1..b and takes 1 from fields 0..p. A field a <= p about to drop to 0
 * marks [a, b] closed, and one about to drop to v marks level v when [a, b]
 * has at most 2n-v-2 positions. Each is found by the zero-field test
 * (y - ones) & ~y & highs on y = state ^ value, with ones only over the
 * tested fields: a zero field below them would otherwise borrow and give a
 * false hit. The v = 1 test reads its masks from the Close table; the
 * tests for v >= 2 run only when it misses below a level above 2.
 *
 * Crossings are defined on the circle, so every level is invariant under
 * the 2n rotations. A shortest of l walks class l: root partner l + 1, and
 * only the diagrams with no chord of cyclic length min(v-u, 2n-v+u) below
 * l, so a chord opened at b takes a partner in b+l..b+2n-l. A diagram M
 * with shortest length l has c(M) positions whose partner lies l on (mod
 * 2n), two per chord when l = n, and c(M) of its 2n rotations (with repeats
 * when M is symmetric) lie in the class, so the weights 2n/c over the class
 * sum to the diagrams of each level whose shortest chord has length l. The
 * closes add c in a field above the counts.
 *
 * Every walk's leaves count by the one leaf rule that _census_py's module
 * docstring states: each leaf adds weight[e] for the e in its ends field to
 * the tally of its level, and census() divides each tally exactly.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAX_CHORDS 10
#define WIDTH 6  /* counts stay at most n, below 2^5; 2 * MAX_CHORDS fields fill 120 bits */
#define ENDS_SHIFT (2 * MAX_CHORDS * WIDTH)  /* the ends field above them, up to 2n < 2^8 */

typedef unsigned long long count_t;
typedef unsigned __int128 state_t;

/* The tests and the update for closing the chord (p, b), or for opening at
 * b a chord pinned to p > b, which tests nothing. */
typedef struct {
    state_t closed, closed_highs;   /* ones and top bits over the fields tested for 1 */
    state_t twos, near, near_highs; /* twos, ones and top bits over those tested for level 1 */
    state_t update;                 /* with the ends of (p, b) in a class walk */
    int last;                       /* the last field of the tests for v >= 2: p, or -2n */
} Close;

typedef struct {
    int n, size;
    int partner[2 * MAX_CHORDS];     /* 0-based partner of each position, -1 when free */
    int first[2 * MAX_CHORDS];       /* a chord opened at b takes a partner in */
    int stop[2 * MAX_CHORDS];        /* first[b]..stop[b]-1 */
    state_t opens[2 * MAX_CHORDS];   /* ones over fields 0..b */
    Close closes[2 * MAX_CHORDS][2 * MAX_CHORDS];  /* [b][p] */
    count_t weight[2 * MAX_CHORDS + 1];  /* what a leaf adds to its level's tally, by ends */
    state_t tally[MAX_CHORDS + 1];       /* lcm(1..2n)/2n times the diagrams of each level */
} Walk;

static state_t ones(int lo, int hi)
{
    state_t x = 0;
    for (int a = lo; a <= hi; a++)
        x |= (state_t)1 << (a * WIDTH);
    return x;
}

/* The least v in 2..level-1 for which a field in the window
 * a >= b - 2n + v + 3, a <= last holds v + 1, else level. opens[] gives each
 * window as a difference; windows shrink as v grows, so the first empty one
 * ends the search. Kept out of line: inlined into place(), its loop made the
 * k = 2 walk about 20% slower at n = 8 (gcc -O2, x86-64). */
static __attribute__((noinline)) int deeper_level(const Walk *w, int b, int last,
                                                  state_t state, int level)
{
    for (int v = 2; v < level; v++) {
        int lo = b - w->size + v + 3;
        if (lo > last)
            break;
        state_t window = lo > 0 ? w->opens[last] - w->opens[lo - 1] : w->opens[last];
        state_t y = state ^ window * (state_t)(v + 1);
        if ((y - window) & ~y & window << (WIDTH - 1))
            return v;
    }
    return level;
}

/* The level after closing (p, b) under the test t: 1 when a field of the
 * cut window holds 2, else the deeper tests while the level is above 2. */
static inline int close_level(const Walk *w, const Close *t, int b,
                              state_t state, int level)
{
    if (level < 2)
        return level;
    state_t y = state ^ t->twos;
    if ((y - t->near) & ~y & t->near_highs)
        return 1;
    return level > 2 ? deeper_level(w, b, t->last, state, level) : level;
}

/* Run the closes from b on, up to the next free position or the end, with
 * both tests. Returns that position, or -1 when a proper interval closes. */
static inline int close_run(const Walk *w, int b, state_t *state, int *level)
{
    int p;
    for (; b < w->size && (p = w->partner[b]) >= 0; b++) {
        const Close *t = &w->closes[b][p];
        state_t y = *state ^ t->closed;
        if ((y - t->closed) & ~y & t->closed_highs)
            return -1;
        *level = close_level(w, t, b, *state, *level);
        *state += t->update;
    }
    return b;
}

/* Close the taken positions from b on, then open a chord c at the first
 * free one, run the closes up to the next free position f once, and try
 * each free partner j >= f for it; each child starts at f. The last chord
 * can only take f, so it is placed and its closes run here, with no child. */
static void place(Walk *w, int b, int c, state_t state, int level)
{
    int p;
    b = close_run(w, b, &state, &level);
    if (b < 0)
        return;
    if (b == w->size) {
        w->tally[level] += w->weight[(int)(state >> ENDS_SHIFT)];
        return;
    }
    state += w->opens[b];
    int f = b + 1;
    while ((p = w->partner[f]) >= 0) {  /* b's partner is still free, so f < size */
        const Close *t = &w->closes[f][p];
        level = close_level(w, t, f, state, level);
        state += t->update;
        f++;
    }
    int start = f;
    if (f < w->first[b])  /* (b, b+1) closes a proper interval, or f is too near */
        start = w->first[b];
    /* the last chord: f is the only free partner left, and below stop[b], since
     * its opener b follows n - 1 others, so b + 2n - l >= 2n - 1 for l <= n */
    if (c + 1 == w->n) {
        if (start == f) {
            w->partner[b] = f;
            w->partner[f] = b;
            if (close_run(w, f, &state, &level) >= 0)
                w->tally[level] += w->weight[(int)(state >> ENDS_SHIFT)];
            w->partner[b] = w->partner[f] = -1;
        }
        return;
    }
    for (int j = start; j < w->stop[b]; j++) {
        if (w->partner[j] >= 0)
            continue;
        w->partner[b] = j;
        w->partner[j] = b;
        place(w, f, c + 1, state, level);
        w->partner[j] = -1;
    }
    w->partner[b] = -1;
}

/* Walk from position 1 with the chords pinned so far, c of them with the
 * root chord, and ends in the ends field of every leaf. */
static void walk_pinned(Walk *w, int c, int ends, int top)
{
    place(w, 1, c, w->opens[0] + ((state_t)ends << ENDS_SHIFT), top);
}

static void pin(Walk *w, int a, int b)
{
    w->partner[a] = b;
    w->partner[b] = a;
}

/* The fold of the partition with the root chord (0, mirror + 1), mirror >= 1:
 * position 1's partner j gives f = j - 1, the mirror's partner q gives
 * g = (mirror - q) mod 2n, and only the diagrams with f <= g are walked. */
static void fold(Walk *w, int mirror, int top)
{
    int size = w->size;
    for (int j = w->first[1]; j < size; j++) {
        if (w->partner[j] >= 0)
            continue;
        int reach = j - 1;
        pin(w, 1, j);
        if (w->partner[mirror] >= 0) {  /* r = 3, or the chord (2, r - 1) */
            int g = (mirror - w->partner[mirror] + size) % size;
            if (g >= reach)
                walk_pinned(w, 2, w->n * (g > reach), top);
        } else {  /* the mirror's partner q, at g = (mirror - q) mod 2n >= f */
            for (int q = 2; q < size; q++) {
                int g = (mirror - q + size) % size;
                if (w->partner[q] < 0 && g >= reach) {
                    pin(w, q, mirror);
                    walk_pinned(w, 3, w->n * (g > reach), top);
                    w->partner[q] = w->partner[mirror] = -1;
                }
            }
        }
        w->partner[j] = -1;
    }
}

static count_t gcd(count_t a, count_t b)
{
    while (b) {
        count_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* counts[j] = number of j-connected diagrams on n chords, for j = 0..k;
 * root_partner (1-based, 0 for none) pins the partner of position 1. The
 * walk leaves the disconnected diagrams uncounted, so counts[0] is the
 * size of the walked set in closed form: (2n-1)!!, or (2n-3)!! with a
 * pinned root partner. A shortest of l in 1..n walks class l instead: root
 * partner l + 1, chords of cyclic length at least l, and for j >= 1 the
 * weights 2n/c of the c ends counted at each leaf; then
 * counts[0] = counts[1]. Returns -1 with an exception set on bad input or
 * a level whose count is not an integer, so counts, which has room for
 * MAX_CHORDS + 1 levels, is never written past its end.
 *
 * A pinned partition follows one rule, as in the twin. An r > n + 1 is
 * first sent to 2n + 2 - r by the reflection i -> 2 - i (mod 2n), which
 * keeps every level, so 2n becomes 2, whose chord (1, 2) closes a proper
 * interval at the first close when n >= 2; root partner 2 keeps the plain
 * walk. Every other r is folded onto itself. The reflection
 * i -> r + 1 - i (mod 2n) fixes the root chord (1, r), keeps every
 * crossing and swaps positions 2 and r - 1, and with them
 * f = partner(2) - 2, how far the chord at 2 reaches forward, and
 * g = (r - 1 - partner(r - 1)) mod 2n, how far the chord at r - 1 reaches
 * backward. So fold() walks only the diagrams with f <= g, with ends n, or
 * 0 when f = g. It pins the chord at 2; when that places the chord at
 * r - 1 too (r = 3, or the chord (2, r - 1)) it walks if g >= f, and
 * otherwise it pins the chord at r - 1 to each free q whose
 * g = (r - 1 - q) mod 2n is at least f. Then place() walks the rest from
 * position 2, with those ends in the ends field; a pinned chord opens
 * through the Close entry [b][p] with p > b, which tests nothing. The
 * hoisted closes still need no closed test: an interval they would test
 * that starts after the opener ends at the far end of the chord at r - 1
 * and holds r, or the positions between that chord's ends, whose partners
 * lie before the opener. */
static int census(int n, int k, int root_partner, int shortest, count_t *counts)
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
    if (shortest) {
        if (root_partner || shortest < 1 || shortest > n) {
            PyErr_Format(PyExc_ValueError,
                         "a class lies in 1..%d and fixes the root partner", n);
            return -1;
        }
        root_partner = shortest + 1;
    }
    Walk *w = PyMem_Calloc(1, sizeof *w);
    if (w == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    w->n = n;
    w->size = size;
    count_t lcm = 1;  /* of the possible ends 1..2n */
    for (int e = 2; e <= size; e++)
        lcm = lcm / gcd(lcm, e) * e;
    w->weight[0] = lcm / (size ? size : 1);  /* n = 0 has one leaf, at level 0 */
    for (int e = 1; e <= size; e++)
        w->weight[e] = lcm / e;
    int gap = n >= 2 ? 2 : 1;  /* (b, b+1) closes a proper interval when n >= 2 */
    if (shortest > gap)
        gap = shortest;
    for (int b = 0; b < size; b++) {
        w->partner[b] = -1;
        w->first[b] = b + gap;
        w->stop[b] = b + size - shortest + 1 < size ? b + size - shortest + 1 : size;
        w->opens[b] = ones(0, b);
        for (int p = b + 1; p < size; p++) {  /* a pinned chord opens at b */
            w->closes[b][p].update = w->opens[b];
            /* below every window's start, b - 2n + v + 3 > -2n, so
             * deeper_level() ends at once and reads no opens[] */
            w->closes[b][p].last = -size;
        }
        for (int p = 0; p < b; p++) {
            Close *t = &w->closes[b][p];
            t->last = p;
            /* [0, 2n-1] is the whole diagram; a cut interval has at most 2n-3 positions */
            t->closed = ones(b == size - 1 ? 1 : 0, p);
            t->closed_highs = t->closed << (WIDTH - 1);
            t->near = ones(b - size + 4 > 0 ? b - size + 4 : 0, p);
            t->twos = t->near << 1;
            t->near_highs = t->near << (WIDTH - 1);
            /* p's partner lies l on, or b's does (mod 2n); never in a plain walk */
            t->update = ones(p + 1, b) - ones(0, p)
                        + ((state_t)((b - p == shortest) + (b - p == size - shortest))
                           << ENDS_SHIFT);
        }
    }

    int top = k < n ? k : n;  /* the level every walk starts from */
    if (root_partner > n + 1)  /* i -> 2 - i (mod 2n) keeps every level; 2n becomes 2 */
        root_partner = size + 2 - root_partner;
    Py_BEGIN_ALLOW_THREADS
    if (!root_partner)
        place(w, 0, 0, 0, top);
    else {
        pin(w, 0, root_partner - 1);
        if (!shortest && root_partner >= 3)
            fold(w, root_partner - 2, top);
        else
            walk_pinned(w, 1, 0, top);
    }
    Py_END_ALLOW_THREADS

    /* a leaf adds at most lcm(1..20) < 2^28 and a level holds at most
     * 19!! < 6.5e8 < 2^30 leaves at n = 10, so 2n times a tally stays below 2^63 */
    count_t above = 0;
    for (int j = k; j >= 1; j--) {
        if (w->tally[j] * size % lcm) {
            PyErr_Format(PyExc_ArithmeticError, "level %d sums to no integer", j);
            PyMem_Free(w);
            return -1;
        }
        counts[j] = above += (count_t)(w->tally[j] * size / lcm);
    }
    /* a class walk's entry 0 repeats entry 1; a plain walk covers (2m-1)!!
     * diagrams, m the chords not pinned by the root */
    counts[0] = shortest ? above : 1;
    for (int m = root_partner ? n - 1 : n; !shortest && m > 0; m--)
        counts[0] *= (count_t)(2 * m - 1);
    PyMem_Free(w);
    return 0;
}

static PyObject *class_census(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "root_partner", "k", "shortest", NULL};
    int n, root_partner = 0, k = 2, shortest = 0;
    count_t counts[MAX_CHORDS + 1];
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "i|iii:class_census", kwlist,
                                     &n, &root_partner, &k, &shortest)
        || census(n, k, root_partner, shortest, counts) < 0)
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
     "class_census(n, root_partner=0, k=2, shortest=0)\n--\n\n"
     "Counts of the j-connected diagrams on n chords for j = 0..k, so by\n"
     "default (total, connected, 2-connected); root_partner (1-based\n"
     "position, 0 for none) pins the partner of position 1. A shortest of\n"
     "l in 1..n counts, for j >= 1, those whose shortest chord has cyclic\n"
     "length l, one walk per rotation class; entry 0 then repeats entry 1."},
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
