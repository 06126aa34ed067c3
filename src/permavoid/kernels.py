"""The counting kernels every caller goes through.

Each kernel is bound from the pure module ``permavoid._kernels_py``.
The one exception is ``count_matrix_copies``: when the optional C
extension ``permavoid._speedups`` was built, it counts the copies in one
matrix instead.  Per call it is 3 to 15 times faster than the pure
kernel on matrices of at most 64 cells, where the pure copy-mask path
pays a few microseconds of numpy fixed cost, and about 3 times faster
on 16x16 and 32x32 matrices, which the pure kernel sweeps.
``BACKEND`` is then ``"compiled"``, and ``"python"`` otherwise.

The C kernel packs a matrix row into one 64-bit word and counts in
64-bit integers.  Its limits are enforced here, and only here: a matrix
wider than 64 columns, or one whose count could reach 2^62 (C(rows,k) *
C(cols,k) bounds it), goes to the pure kernel, which counts in Python
ints.

The block kernels ``occurrence_counts`` and ``matrix_copy_counts``
count a whole (B, n) block of permutations or (B, rows, cols) block of
matrices per call, in numpy ints up to 2^64 and in Python ints past it,
and ``avoider_counts`` counts the avoiders over a whole (B, C(n,k))
block of sampled hypergraphs in one S_n pass.  The Monte-Carlo
estimators hand them the blocks of ``rngutil.permutation_blocks``,
``rngutil.subset_pair_blocks`` and ``rngutil.bernoulli_blocks``,
whose rows run in the order of the per-sample draws, so a seed gives
the same tallies as one kernel call per sample would.
``count_avoiders`` serves only ``avoiders``, one hypergraph per
pass, and can list the avoiders it counts; it compares no values, but
reads each test sigma[x] < sigma[y] of a lex block as a row of a
cached bit-packed atlas over the block's tail orders.  ``min-copies``
hands ``matrix_copy_counts`` its supports and ``sna`` hands
``occurrence_counts`` its family members, a block at a time.
``unpack_rows`` turns packed rows into the uint8 entries they take.

The generator ``occurrences`` walks one permutation's occurrences over
every index set, or over the edges of Λ; a containment test stops at
the first one.
"""

from __future__ import annotations

import math

from . import _kernels_py
from ._kernels_py import (
    BACKEND,
    avoider_counts,
    copy_count_histogram,
    count_avoiders,
    count_matrix_copies,
    matrix_contains_perm,
    matrix_copy_counts,
    occurrence_counts,
    occurrences,
    unpack_rows,
)

try:
    from . import _speedups
except ImportError:
    pass
else:
    BACKEND = _speedups.BACKEND

    def count_matrix_copies(row_bits, ncols, pi):
        """Copies of the pattern's permutation matrix inside a 0-1 matrix."""
        k = len(pi)
        if ncols > 64 or math.comb(len(row_bits), k) * math.comb(ncols, k) >= 2**62:
            return _kernels_py.count_matrix_copies(row_bits, ncols, pi)
        return _speedups.count_matrix_copies(row_bits, ncols, pi)
