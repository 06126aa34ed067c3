"""Backend selection for the counting kernels.

At import time this module binds the hot kernels from the compiled
extension (``permavoid._speedups``) when it is available, and from the
pure-Python twin (``permavoid._kernels_py``) otherwise.  ``BACKEND`` is
``"compiled"`` or ``"python"``.  Callers always go through the names
bound here.

The compiled backend packs a matrix row into one 64-bit word and counts
in signed 64-bit integers.  Its limits are enforced here, and only here:
a count that could reach 2^62 (C(n,k) bounds occurrences, C(rows,k) *
C(cols,k) bounds matrix copies) or a matrix wider than 64 columns goes
to the pure twin, which counts in Python ints.  Without the extension
the pure functions are bound directly, with no guard in between.

The edge kernels assume a pattern of length >= 1.  ``enumerate_occurrences``
builds Python tuples either way, so it is only implemented once, in the
pure module.

So are the block kernels, bound from the pure module on either backend:
``occurrence_counts`` tallies a (B, n) block of permutations and
``matrix_copy_counts`` counts copies in each matrix of a (B, rows, cols)
block, in numpy ints up to 2^64 and in Python ints past it.  The
Monte-Carlo estimators hand them the blocks of
``rngutil.permutation_blocks`` and ``rngutil.subset_pair_blocks``,
whose rows run in the order of the per-sample draws, so a seed gives
the same tallies as one kernel call per sample would; ``min-copies``
hands ``matrix_copy_counts`` its supports and ``sna`` hands
``occurrence_counts`` its family members, a block at a time.  The pure
``count_matrix_copies`` is ``matrix_copy_counts`` on one matrix, and
``unpack_rows`` turns packed rows into the uint8 entries they take.
"""

from __future__ import annotations

import math

from . import _kernels_py

try:
    from . import _speedups as _impl
except ImportError:
    _impl = _kernels_py

BACKEND: str = _impl.BACKEND

enumerate_occurrences = _kernels_py.enumerate_occurrences
occurrence_counts = _kernels_py.occurrence_counts
matrix_copy_counts = _kernels_py.matrix_copy_counts
unpack_rows = _kernels_py.unpack_rows
contains = _impl.contains
copy_count_histogram = _impl.copy_count_histogram
hits_edge = _impl.hits_edge
count_edge_hits = _impl.count_edge_hits
count_avoiders = _impl.count_avoiders

if _impl is _kernels_py:
    count_occurrences = _kernels_py.count_occurrences
    count_matrix_copies = _kernels_py.count_matrix_copies
    matrix_contains_perm = _kernels_py.matrix_contains_perm
else:
    _INT64_SAFE = 2**62
    _WORD_BITS = 64

    def _count_occurrences(sigma, pi):
        if math.comb(len(sigma), len(pi)) >= _INT64_SAFE:
            return _kernels_py.count_occurrences(sigma, pi)
        return _impl.count_occurrences(sigma, pi)

    def _count_matrix_copies(row_bits, ncols, pi):
        k = len(pi)
        if ncols > _WORD_BITS or \
                math.comb(len(row_bits), k) * math.comb(ncols, k) >= _INT64_SAFE:
            return _kernels_py.count_matrix_copies(row_bits, ncols, pi)
        return _impl.count_matrix_copies(row_bits, ncols, pi)

    def _matrix_contains_perm(row_bits, ncols, pi):
        if ncols > _WORD_BITS:
            return _kernels_py.matrix_contains_perm(row_bits, ncols, pi)
        return _impl.matrix_contains_perm(row_bits, ncols, pi)

    count_occurrences = _count_occurrences
    count_matrix_copies = _count_matrix_copies
    matrix_contains_perm = _matrix_contains_perm
