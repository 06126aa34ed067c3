/* count_matrix_copies in C: the one kernel that stays compiled.

   Same arguments and result as permavoid._kernels_py.count_matrix_copies
   for matrices of at most 64 columns, so that a row is one machine word;
   permavoid.kernels sends wider matrices, and counts that could reach
   2^62, to the pure kernel.  A partial chain count is at most
   C(64, 32) < 2^61, so unsigned 64-bit sums are exact.  setup.py builds
   this file when a C compiler is present; it needs only Python.h. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_COLS 64

typedef struct {
    const uint64_t *rows; /* the nonzero rows, top to bottom */
    Py_ssize_t nrows;
    int ncols, k;
    int order[MAX_COLS];    /* order[v]: position of pattern value v */
    uint64_t sel[MAX_COLS]; /* the current row k-subset, top to bottom */
} Search;

/* Copies on the rows in sel.  Taking the rows in the pattern's value
   order, f[c] counts the chains of 1s through the rows so far, in
   strictly increasing columns, that end in column c. */
static uint64_t
chains(const Search *s)
{
    uint64_t f[MAX_COLS], row, run, here, total = 0;
    int c, j;

    row = s->sel[s->order[0]];
    for (c = 0; c < s->ncols; c++)
        f[c] = (row >> c) & 1;
    for (j = 1; j < s->k; j++) {
        row = s->sel[s->order[j]];
        run = 0;
        for (c = 0; c < s->ncols; c++) {
            here = f[c];
            f[c] = (row >> c) & 1 ? run : 0;
            run += here;
        }
    }
    for (c = 0; c < s->ncols; c++)
        total += f[c];
    return total;
}

/* Copies on every row subset that extends sel[0 .. depth-1] with rows
   from start on, in lexicographic order. */
static uint64_t
subsets(Search *s, int depth, Py_ssize_t start)
{
    uint64_t total = 0;
    Py_ssize_t x;

    for (x = start; x <= s->nrows - (s->k - depth); x++) {
        s->sel[depth] = s->rows[x];
        total += depth == s->k - 1 ? chains(s) : subsets(s, depth + 1, x + 1);
    }
    return total;
}

static PyObject *
count_matrix_copies(PyObject *module, PyObject *args)
{
    PyObject *row_bits, *pi, *rows_seq = NULL, *pi_seq, *result = NULL;
    Py_ssize_t ncols, nrows = 0, size, i, k;
    uint64_t *rows = NULL, bits;
    Search s;
    long v;

    if (!PyArg_ParseTuple(args, "OnO:count_matrix_copies", &row_bits, &ncols, &pi))
        return NULL;
    if (ncols < 0 || ncols > MAX_COLS)
        return PyErr_Format(PyExc_ValueError, "ncols must be 0..%d, got %zd",
                            MAX_COLS, ncols);
    pi_seq = PySequence_Fast(pi, "pi must be a sequence");
    if (pi_seq == NULL)
        return NULL;
    k = PySequence_Fast_GET_SIZE(pi_seq);
    if (k == 0) {
        result = PyLong_FromLong(1);
        goto done;
    }
    rows_seq = PySequence_Fast(row_bits, "row_bits must be a sequence");
    if (rows_seq == NULL)
        goto done;
    size = PySequence_Fast_GET_SIZE(rows_seq);
    rows = PyMem_New(uint64_t, size > 0 ? size : 1);
    if (rows == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < size; i++) {
        bits = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(rows_seq, i));
        if (bits == (uint64_t)-1 && PyErr_Occurred())
            goto done;
        if (bits)
            rows[nrows++] = bits; /* an all-zero row never hosts a 1 */
    }
    if (k > nrows || k > ncols) {
        result = PyLong_FromLong(0);
        goto done;
    }
    for (i = 0; i < k; i++)
        s.order[i] = -1;
    for (i = 0; i < k; i++) {
        v = PyLong_AsLong(PySequence_Fast_GET_ITEM(pi_seq, i));
        if (v == -1 && PyErr_Occurred())
            goto done;
        if (v < 0 || v >= k || s.order[v] >= 0) {
            PyErr_SetString(PyExc_ValueError, "pi must be a 0-based permutation");
            goto done;
        }
        s.order[v] = (int)i;
    }
    s.rows = rows;
    s.nrows = nrows;
    s.ncols = (int)ncols;
    s.k = (int)k;
    result = PyLong_FromUnsignedLongLong(subsets(&s, 0, 0));
done:
    PyMem_Free(rows);
    Py_XDECREF(rows_seq);
    Py_DECREF(pi_seq);
    return result;
}

static PyMethodDef methods[] = {
    {"count_matrix_copies", count_matrix_copies, METH_VARARGS,
     "count_matrix_copies(row_bits, ncols, pi)\n--\n\n"
     "Copies of the pattern's permutation matrix inside a 0-1 matrix of at\n"
     "most 64 columns whose copy count stays below 2^62."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_speedups",
    .m_doc = "Compiled count_matrix_copies; permavoid.kernels guards its limits.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *m = PyModule_Create(&module);

    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
