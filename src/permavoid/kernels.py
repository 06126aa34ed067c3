"""The counting kernels every caller goes through, in Python and numpy.

The full S_n passes (``copy_count_histogram``, ``count_avoiders``,
``avoider_counts``) sweep S_n in lexicographic blocks of up to 7!
permutations: a fixed (n - t)-value prefix above the lex table of the
t values it leaves.  ``copy_count_histogram`` and ``avoider_counts``
compare the values of each built block in numpy.  ``count_avoiders``,
which counts, and can list, the avoiders over one hypergraph for
``avoiders``, builds no block: each test sigma[x] < sigma[y] in a block
is a row of ``_atlas(t)``, a cached bit-packed table over the t!
tail orders, so an edge is an AND of k - 1 gathered rows and a block
an OR over its edges.  ``avoider_counts`` counts the avoiders over a
whole (B, C(n,k)) block of sampled hypergraphs in one pass, ANDing
each permutation's packed carried index sets against each hypergraph's
packed edges; it needs them per permutation, not ORed over edges, so
it keeps the value comparisons.

The block kernels ``occurrence_counts`` and ``matrix_copy_counts``
count a whole (B, n) block of permutations or (B, rows, cols) block of
matrices per call, in numpy ints up to 2^64 and in Python ints past it.
The Monte-Carlo estimators hand them, and ``avoider_counts``, the
blocks of ``rngutil.permutation_blocks``, ``rngutil.subset_pair_blocks``
and ``rngutil.bernoulli_blocks``, whose rows run in the order of the
per-sample draws, so a seed gives the same tallies as one kernel call
per sample would.  ``min-copies`` hands ``matrix_copy_counts`` its
supports and ``sna`` hands ``occurrence_counts`` its family members, a
block at a time.  ``unpack_rows`` turns packed rows into the uint8
entries they take.

``count_matrix_copies`` counts one matrix: one AND over a cached
table of copy masks when its nonzero rows hold at most 64 cells, and
past that ``matrix_copy_counts`` on a block of one, a numpy sweep over
chunks of row subsets.  ``occurrences``, the one walk over the
occurrences of a pattern in one permutation (all of them, or those on
given edges), and ``matrix_contains_perm`` are plain Python; a
containment test stops at the first occurrence or copy.

``BACKEND`` names the implementation, ``"python"``, for run reports.
The public callables are the kernels alone, and the standard-library
helpers are imported as modules: perfbench's tracer wraps every public
callable here and rebinds the same object wherever the package imported
it, so a public ``Counter`` would be wrapped package-wide.

Conventions:

  * permutations and patterns arrive as 0-based value tuples;
  * hypergraph edges arrive as sorted tuples of 0-based indices;
  * matrices arrive as per-row column bitmasks (bit j = column j);
  * full S_n passes run in lexicographic one-line order.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

import numpy as np

BACKEND = "python"


def _value_order(pi: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of the pattern sorted by value: order[t] = pi^{-1}(t).

    A k-subset of positions x_0 < ... < x_{k-1} carries the pattern iff
    reading sigma at x[order[0]], x[order[1]], ... gives a strictly
    increasing value sequence.
    """
    order = [0] * len(pi)
    for i, v in enumerate(pi):
        order[v] = i
    return tuple(order)


@functools.lru_cache(maxsize=256)
def _neighbours(pi: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """For each depth d, the earlier positions t < d whose pattern values
    lie nearest below and above pi[d], or k + 1 and k where there are
    none: slots where ``occurrences`` keeps -1 and n."""
    k = len(pi)
    return tuple(
        (max((t for t in range(d) if pi[t] < pi[d]), key=pi.__getitem__, default=k + 1),
         min((t for t in range(d) if pi[t] > pi[d]), key=pi.__getitem__, default=k))
        for d in range(k))


def occurrences(sigma: tuple[int, ...], pi: tuple[int, ...], edges=None):
    """Yield the index tuples of sigma that carry pi.

    With ``edges=None`` every k-subset of positions is a candidate, and
    the occurrences come in lexicographic order: a depth-first walk
    that places pattern position d at some x and keeps only the values
    between those of its nearest placed neighbours in pattern value.
    Otherwise only the given edges are tested, and those that carry pi
    come in the edges' order.  The empty pattern occurs once, as ();
    a pattern longer than sigma never does.
    """
    if edges is not None:
        order = _value_order(pi)
        for e in edges:
            prev = -1
            for t in order:
                v = sigma[e[t]]
                if v <= prev:
                    break
                prev = v
            else:
                yield e
        return
    n, k = len(sigma), len(pi)
    bounds = _neighbours(pi)
    vals = [0] * k + [n, -1]
    idx = [0] * k

    def walk(d, start):
        if d == k:
            yield tuple(idx)
            return
        lo, hi = bounds[d]
        for x in range(start, n - k + d + 1):
            v = sigma[x]
            if vals[lo] < v < vals[hi]:
                idx[d], vals[d] = x, v
                yield from walk(d + 1, x + 1)

    yield from walk(0, 0)


@functools.lru_cache(maxsize=None)
def _lex_table(t: int) -> np.ndarray:
    """S_t in lexicographic order as a (t, t!) uint8 array: column j is
    the j-th permutation, so each position is one row."""
    size = math.factorial(t)
    flat = itertools.chain.from_iterable(itertools.permutations(range(t)))
    return np.fromiter(flat, np.uint8, size * t).reshape(size, t).T


def _lex_blocks(n: int):
    """Yield S_n in lexicographic order as (n, B) uint8 blocks: each
    (n - t)-value prefix, in lex order, above the lex table of the t
    values it leaves, with t = min(n, 7)."""
    t = min(n, 7)  # at most 7! = 5040 permutations per block
    tail = _lex_table(t)
    for prefix in itertools.permutations(range(n), n - t):
        blk = np.empty((n, tail.shape[1]), np.uint8)
        blk[:n - t] = np.array(prefix, np.uint8).reshape(-1, 1)
        blk[n - t:] = np.array(sorted(set(range(n)).difference(prefix)), np.uint8)[tail]
        yield blk


def _carriers(blk: np.ndarray, index_sets, order: tuple[int, ...]):
    """Yield, for each index set e, the mask of the block's permutations
    whose values at e[order[0]], e[order[1]], ... increase, i.e. those
    that carry the pattern on e."""
    for e in index_sets:
        rows = [blk[e[t]] for t in order]
        if len(rows) < 2:
            yield np.ones(blk.shape[1], bool)
            continue
        mask = rows[0] < rows[1]
        for a, b in zip(rows[1:], rows[2:]):
            mask &= a < b
        yield mask


def occurrence_counts(blk: np.ndarray, pi: tuple[int, ...]) -> dict[int, int]:
    """{c: #rows with exactly c occurrences of pi} over a (B, n) block
    of permutations, one per row; counts no row has are left out."""
    n = blk.shape[1]
    k = len(pi)
    count = np.zeros(len(blk), np.min_scalar_type(math.comb(n, k)))  # C(n,k) bounds it
    positions = np.ascontiguousarray(blk.T)  # one row per position
    for mask in _carriers(positions, itertools.combinations(range(n), k), _value_order(pi)):
        count += mask
    return {c: rows for c, rows in enumerate(np.bincount(count).tolist()) if rows}


def copy_count_histogram(n: int, pi: tuple[int, ...]) -> dict[int, int]:
    """Histogram {c: #sigma in S_n with exactly c occurrences of pi}."""
    hist = collections.Counter()
    for blk in _lex_blocks(n):
        hist.update(occurrence_counts(blk.T, pi))
    return hist


@functools.lru_cache(maxsize=None)
def _atlas(t: int) -> np.ndarray:
    """Every comparison a lex block of ``_lex_blocks`` can make, as one
    bit-packed row over the t! columns of ``_lex_table(t)``: bit j of a
    row (little-endian within bytes) is column j, and zero bits pad each
    row to whole uint64 words, the read-only array's dtype.

      * row 0 is never true and row 1 always;
      * row 2 + a*t + b is tail[a] < tail[b];
      * row 2 + t*t + b*(t + 1) + r is tail[b] >= r, for r = 0..t;
      * row 2 + t*t + t*(t + 1) + b*(t + 1) + r is tail[b] < r.

    The rows are packed one at a time; at t = 7 the atlas holds 161
    rows of 632 bytes.
    """
    tail = _lex_table(t)
    size = tail.shape[1]

    def rows():
        yield np.zeros(size, bool)
        yield np.ones(size, bool)
        for a in range(t):
            for b in range(t):
                yield tail[a] < tail[b]
        for b in range(t):
            for r in range(t + 1):
                yield tail[b] >= r
        for b in range(t):
            for r in range(t + 1):
                yield tail[b] < r

    atlas = np.zeros((2 + t * t + 2 * t * (t + 1), 8 * -(-size // 64)), np.uint8)
    for i, row in enumerate(rows()):
        atlas[i, :(size + 7) // 8] = np.packbits(row, bitorder="little")
    atlas = atlas.view(np.uint64)
    atlas.flags.writeable = False  # shared by every caller through the cache
    return atlas


def _block_lookups(n: int):
    """Yield, for each block of ``_lex_blocks(n)`` in order, its prefix
    and an (n, n) array whose entry [x, y] is the ``_atlas(t)`` row of
    sigma[x] < sigma[y] in the block.  The array is overwritten for the
    next block.

    The t values the prefix leaves fill the tail in sorted order, so
    two tail positions compare as their lex-table entries do.  A prefix
    value v exceeds exactly r of them, r = v - #(smaller prefix values),
    so v is below the value at tail position b iff tail[b] >= r.  Two
    prefix values compare the same way in every column: row 0 or row 1.
    """
    t = min(n, 7)
    p = n - t
    ge = 2 + t * t + (t + 1) * np.arange(t)  # + r: tail[b] >= r
    lt = ge + t * (t + 1)  # + r: tail[b] < r
    rows = np.empty((n, n), np.intp)
    rows[p:, p:] = 2 + np.arange(t * t).reshape(t, t)
    for prefix in itertools.permutations(range(n), p):
        v = np.array(prefix, np.intp)
        lower = v[:, None] < v
        r = v - lower.sum(axis=0)  # the tail values below each prefix value
        rows[:p, :p] = lower
        rows[:p, p:] = r[:, None] + ge
        rows[p:, :p] = lt[:, None] + r
        yield prefix, rows


_ATLAS_CHUNK = 1 << 16  # bytes of atlas rows gathered per chunk of edges


def count_avoiders(
    n: int,
    pi: tuple[int, ...],
    edges: tuple[tuple[int, ...], ...] | None,
    collect: bool = False,
) -> tuple[int, list[tuple[int, ...]] | None]:
    """Count sigma in S_n with no pattern occurrence on an edge.

    ``edges=None`` means the complete hypergraph, i.e. classical
    avoidance.  Returns (count, avoiders or None); avoiders are 0-based
    value tuples in lexicographic order.

    No block of S_n is built and no value compared: an edge carries pi
    in the permutations where its k - 1 tests sigma[x] < sigma[y], taken
    in pattern value order, all hold, and ``_block_lookups`` names each
    test as a row of the cached ``_atlas``.  Per block, the rows of the
    edges are gathered and ANDed in chunks of at most about
    ``_ATLAS_CHUNK`` bytes and ORed into one mask of the permutations
    hit; its zero bits are the avoiders, built only for ``collect``.

    >>> count_avoiders(4, (0, 2, 1), None)
    (14, None)
    >>> count_avoiders(4, (0, 2, 1), ())
    (24, None)
    """
    k = len(pi)
    sets = list(itertools.combinations(range(n), k) if edges is None else edges)
    out: list[tuple[int, ...]] | None = [] if collect else None
    if k < 2 and sets:
        return 0, out  # every index set carries a pattern of length 0 or 1
    t = min(n, 7)
    atlas = _atlas(t)
    tail = _lex_table(t)
    chained = np.array(sets, np.intp).reshape(len(sets), k)[:, _value_order(pi)]
    pairs = chained[:, :-1] * n + chained[:, 1:]  # flat [x, y] of each test
    step = max(1, _ATLAS_CHUNK // atlas[0].nbytes)
    count = 0
    for prefix, lookup in _block_lookups(n):
        tests = lookup.take(pairs)
        hit = np.zeros_like(atlas[0])
        for s in range(0, len(tests), step):
            part = tests[s:s + step]
            carried = atlas[part[:, 0]]
            for j in range(1, k - 1):
                carried &= atlas[part[:, j]]
            hit |= np.bitwise_or.reduce(carried, axis=0)
        free = np.unpackbits((~hit).view(np.uint8), count=tail.shape[1],
                             bitorder="little").view(bool)
        count += int(np.count_nonzero(free))
        if collect:
            rest = np.array(sorted(set(range(n)).difference(prefix)), np.uint8)
            out.extend(prefix + row for row in map(tuple, rest[tail[:, free]].T.tolist()))
    return count, out


_PLANE = 1 << 16  # (permutations x samples) cells tested per chunk


def avoider_counts(
    n: int,
    pi: tuple[int, ...],
    candidates: tuple[tuple[int, ...], ...],
    lam_block: np.ndarray,
) -> list[int]:
    """The number of sigma in S_n avoiding pi over each hypergraph of a
    block: row s of the (S, C) bool ``lam_block`` marks which of the C
    ``candidates`` index sets are edges of the s-th hypergraph.

    Per lex block of S_n, the index sets that carry pi in each
    permutation are packed into 64-bit words like the rows of
    ``lam_block`` (bit i of byte b is index set 8b + i); a permutation
    avoids over a hypergraph iff their words AND to zero.  Index sets
    that are an edge of no hypergraph in the block are never tested.
    The (permutations x samples) plane is tested in chunks of at most
    about ``_PLANE`` cells.
    """
    used = lam_block.any(axis=0)
    candidates = [e for e, u in zip(candidates, used.tolist()) if u]
    nbytes = 8 * max(1, -(-len(candidates) // 64))  # whole words, at least one
    lam = np.zeros((len(lam_block), nbytes), np.uint8)
    lam[:, :(len(candidates) + 7) // 8] = np.packbits(lam_block[:, used], axis=1,
                                                       bitorder="little")
    lam = lam.view(np.uint64)
    counts = np.zeros(len(lam), np.int64)
    lam_step = min(len(lam), _PLANE) or 1
    perm_step = max(1, _PLANE // lam_step)
    order = _value_order(pi)
    for blk in _lex_blocks(n):
        carried = np.zeros((nbytes, blk.shape[1]), np.uint8)
        for j, mask in enumerate(_carriers(blk, candidates, order)):
            carried[j >> 3] |= mask.view(np.uint8) << (j & 7)
        carry = np.ascontiguousarray(carried.T).view(np.uint64)
        for s in range(0, len(lam), lam_step):
            some = lam[None, s:s + lam_step]
            for p in range(0, len(carry), perm_step):
                part = carry[p:p + perm_step, None]
                free = (part[..., 0] & some[..., 0]) == 0
                for w in range(1, lam.shape[1]):
                    free &= (part[..., w] & some[..., w]) == 0
                counts[s:s + lam_step] += np.count_nonzero(free, axis=0)
    return counts.tolist()


def unpack_rows(row_bits, ncols: int) -> np.ndarray:
    """Per-row column bitmasks as a (rows, cols) uint8 array of entries."""
    width = (ncols + 7) // 8
    packed = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in row_bits),
                           np.uint8).reshape(len(row_bits), width)
    return np.unpackbits(packed, axis=1, count=ncols, bitorder="little")


def count_matrix_copies(
    row_bits: tuple[int, ...], ncols: int, pi: tuple[int, ...]
) -> int:
    """Copies of the pattern's permutation matrix inside a 0-1 matrix,
    without its all-zero rows, which can never host a 1.

    A matrix of at most 64 cells is packed row-major into one word, and
    a copy is a mask of ``_copy_masks`` with no cell outside it; a
    larger matrix is ``matrix_copy_counts`` on a block of one.
    """
    rows = [b for b in row_bits if b]
    if len(rows) * ncols > 64:
        return matrix_copy_counts(unpack_rows(rows, ncols)[None], pi)[0]
    if len(pi) > min(len(rows), ncols):
        return 0  # and 1 x 64 would list all C(64, k) column subsets for no pair
    word = 0
    for i, b in enumerate(rows):
        word |= b << (i * ncols)
    masks = _copy_masks(len(rows), ncols, pi)
    missing = masks & np.uint64(~word & 0xFFFF_FFFF_FFFF_FFFF)  # a copy's cells holding 0
    return masks.size - int(np.count_nonzero(missing))


@functools.lru_cache(maxsize=64)
def _copy_masks(nrows: int, ncols: int, pi: tuple[int, ...]) -> np.ndarray:
    """One uint64 mask per (row k-subset, column k-subset) pair of a
    matrix of at most 64 cells, packed as in ``count_matrix_copies``:
    the k cells where the pair puts the pattern's 1s.

    With k at most rows and cols, a table holds at most C(8,4)^2 = 4900
    masks (8x8, k = 4), 39 KB, so the cache holds at most 64 * 39 KB.
    """
    k = len(pi)
    row_sets = np.array(list(itertools.combinations(range(nrows), k)), np.uint64)
    row_sets = row_sets.reshape(math.comb(nrows, k), k)
    col_sets = np.array(list(itertools.combinations(range(ncols), k)), np.uint64)
    col_sets = col_sets.reshape(math.comb(ncols, k), k)
    # Pattern row i sits in row row_sets[:, i] and column col_sets[:, pi[i]].
    cells = row_sets[:, None, :] * np.uint64(ncols) + col_sets[None, :, list(pi)]
    masks = np.bitwise_or.reduce(np.uint64(1) << cells, axis=2).ravel()
    masks.flags.writeable = False  # shared by every caller through the cache
    return masks


_SLAB = 1 << 16  # uint8 entries gathered per chunk of row subsets
# Row subsets kept in a cached table; more are streamed.  The table saves
# the per-call combinations walk (streaming alone made perfbench `matrix`
# 1.2x slower); the cache holds at most 64 * 1024 * k * 8 bytes.
_TABLE = 1024


@functools.lru_cache(maxsize=64)
def _subset_table(nrows: int, order: tuple[int, ...]) -> np.ndarray:
    """All row k-subsets of range(nrows) in lex order as a read-only
    (k, S) array: row j lists the subset's row of pattern value j."""
    table = np.array(list(itertools.combinations(range(nrows), len(order))), np.intp)
    table = np.ascontiguousarray(table.reshape(-1, len(order))[:, order].T)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _row_subsets(nrows: int, order: tuple[int, ...], size: int):
    """Yield the row k-subsets of ``_subset_table`` in (k, <= size)
    chunks, without building the table once it would pass ``_TABLE``."""
    k = len(order)
    if math.comb(nrows, k) <= _TABLE:
        table = _subset_table(nrows, order)
        for start in range(0, table.shape[1], size):
            yield table[:, start:start + size]
        return
    subsets = itertools.combinations(range(nrows), k)
    while True:
        chunk = itertools.islice(subsets, size)
        flat = np.fromiter(itertools.chain.from_iterable(chunk), np.intp)
        if not flat.size:
            return
        yield flat.reshape(-1, k)[:, order].T


def matrix_copy_counts(blk: np.ndarray, pi: tuple[int, ...]) -> list[int]:
    """Copies of the pattern's permutation matrix in each 0-1 matrix of
    a (B, rows, cols) uint8 block.

    A copy is a pair (row k-subset, column k-subset) whose induced
    positions hold a 1 wherever the pattern matrix does.  For each row
    subset, taken in the pattern's value order, ``f[c]`` counts the
    chains of 1s through its first j + 1 rows, in increasing columns,
    that end in column c + j; a running sum over columns and a product
    with the next row extend every chain at once.  The row subsets are
    swept in chunks, each vectorised over its subsets and the block.
    """
    size, nrows, ncols = blk.shape
    k = len(pi)
    if k == 0:
        return [1] * size
    if k > nrows or k > ncols:
        return [0] * size
    order = _value_order(pi)
    # A partial sweep counts chains of at most k columns, so it is at
    # most C(cols, min(k, cols // 2)); each of the C(rows, k) row
    # subsets adds at most C(cols, k).  Past 2^64 this is object: ints.
    dtype = np.min_scalar_type(math.comb(nrows, k) * math.comb(ncols, min(k, ncols // 2)))
    width = ncols - k + 1  # row j of a chain sits in columns j .. j + width - 1
    entries = np.ascontiguousarray(blk.transpose(2, 1, 0))  # (cols, rows, B)
    total = np.zeros(size, dtype)
    chunk = max(1, _SLAB // (max(size, 1) * k * ncols))  # row subsets per slab
    for sel in _row_subsets(nrows, order, chunk):
        slab = entries.take(sel, axis=1)  # (cols, k, subsets, B)
        f = slab[:width, 0].astype(dtype)
        for j in range(1, k):
            # One add per column over a whole (subsets, B) plane: np.cumsum
            # along axis 0 accumulates the short column axis innermost and
            # ran 2-4x slower on (2048, 3, 3) and (2048, 4, 4) blocks.
            for c in range(1, width):
                f[c] += f[c - 1]
            f *= slab[j:j + width, j]
        total += f.sum(axis=(0, 1), dtype=dtype)
    return total.tolist()


def matrix_contains_perm(
    row_bits: tuple[int, ...], ncols: int, pi: tuple[int, ...]
) -> bool:
    """True iff the matrix contains the pattern's permutation matrix.

    Per row k-subset, ``reach`` holds the columns where an increasing
    chain through the rows in value order can end; Python ints make it
    exact at any width.  It returns at the first copy, so on a large
    matrix that holds one it does far less work than counting them all
    with ``count_matrix_copies``.
    """
    k = len(pi)
    if k == 0:
        return True
    rows = [b for b in row_bits if b]
    if k > len(rows) or k > ncols:
        return False
    order = _value_order(pi)
    nrows = len(rows)
    sel = [0] * k

    def rec(depth: int, start: int) -> bool:
        for x in range(start, nrows - (k - depth) + 1):
            sel[depth] = rows[x]
            if depth == k - 1:
                reach = sel[order[0]]
                for j in range(1, k):
                    if not reach:
                        break
                    # ~(reach ^ (reach - 1)): every bit above the lowest set one
                    reach = sel[order[j]] & ~(reach ^ (reach - 1))
                if reach:
                    return True
            elif rec(depth + 1, x + 1):
                return True
        return False

    return rec(0, 0)
