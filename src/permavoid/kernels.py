"""The counting kernels every caller goes through, in Python and numpy.

The full S_n passes (``copy_count_histogram``, ``count_avoiders``,
``avoider_counts``) sweep S_n in lexicographic blocks of up to 7!
permutations: a fixed (n - t)-value prefix above the lex table of the
t values it leaves.  No block is built: each test sigma[x] < sigma[y]
is a row of ``_atlas(t)``, a cached bit-packed table over the t! tail
orders, and ``_carried_words`` ANDs k - 1 rows per index set.  A block
holds one prefix's words, a row per index set; a run holds as many
consecutive blocks as fit ``_RUN`` bytes, the passes' one memory
budget, and is one gather and k - 2 ANDs whose temporaries are at most
its words.  Their uint8 lookups come in batches of whole runs that fit
``_RUN`` bytes with their tests.  The histogram unpacks a block at a
time: 5,040 bytes per index set at t = 7, 4.7 MB for C(12, 6) sets at
the default enumeration cap.  Both avoider kernels read
``_hit_masks``, which ORs a block of hypergraphs' edges into masks of
the permutations each hits: sets that are an edge of every hypergraph
are ORed once per run with no mask, sets of none are never tested, and
only the rest are masked per hypergraph, in chunks that fit ``_RUN``.
A hypergraph's avoiders number n! less the set bits of its masks
(``np.bitwise_count``).

The block kernels ``row_occurrence_counts`` (with its histogram,
``occurrence_counts``) and ``matrix_copy_counts`` count a whole (B, n)
block of permutations or (B, rows, cols) block of matrices per call, in
numpy ints up to 2^64 and in Python ints past it; ``mask_copy_counts``
counts a (rows, B) block of row masks.
All three take their index sets (row subsets) from ``_row_subsets`` in
chunks of at most ``_SLAB`` gathered entries, from a cached table of at
most ``_TABLE`` sets or streamed past it, and compare a whole chunk per
numpy call.  The Monte-Carlo estimators hand them, and
``avoider_counts``, the blocks of ``rngutil.permutation_blocks``,
``rngutil.subset_pair_blocks`` and ``rngutil.bernoulli_blocks``, whose
rows run in the order of the per-sample draws, so a seed gives the same
tallies as one kernel call per sample would.  The sigma estimator hands
``occurrence_counts`` its sampled blocks only for n >= 9.  For n <= 8
it hands ``row_occurrence_counts`` all n! permutations once per
pattern, decoded from shuffle codes in blocks of ``rngutil.BLOCK``, and
looks each sample's count up in the table they make (n! entries,
40,320 bytes at n = 8).  Permutation blocks and subset pairs are
transposed views of position-major arrays, so ``row_occurrence_counts``
reads the positions of a permutation block without a copy.
``min-copies`` hands ``matrix_copy_counts`` its supports and ``sna``
hands ``row_occurrence_counts`` its family members, a block at a time.
``unpack_rows`` turns packed rows into the uint8 entries they take.

Copies of a pattern in 0-1 matrices are counted three ways, split by
8 columns:

  * one matrix of at most 8 columns, whose nonzero rows hold at most 64
    cells: ``count_matrix_copies`` ORs one cached bitset per nibble of
    the rows (the row and column subset pairs the nibble rules out) and
    counts the pairs left, in plain Python ints;
  * a block of matrices of at most 8 columns, as uint8 row masks:
    ``mask_copy_counts`` ANDs one cached bitset of column subsets per
    row of each row subset and counts the bits left
    (``np.bitwise_count``).  ``sample-density`` hands it its samples for
    r <= 8;
  * any wider block, and any other single matrix as a block of one:
    ``matrix_copy_counts``, the chain sweep, a numpy running-sum pass
    over chunks of row subsets.
``occurrences``, the one walk over the occurrences of a pattern in one
permutation (all of them, or those on given edges), is plain Python.

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


def row_occurrence_counts(blk: np.ndarray, pi: tuple[int, ...]) -> np.ndarray:
    """The number of occurrences of pi in each row of a (B, n) block of
    permutations, as a length-B array of the smallest unsigned type
    that holds C(n, k).

    The index sets come from ``_row_subsets`` in chunks of at most
    ``_SLAB`` gathered values, as (k, sets) arrays in pattern value
    order.  Per chunk the k - 1 chained comparisons are ANDed over a
    (sets, B) plane and summed along the set axis.
    """
    size, n = blk.shape
    k = len(pi)
    dtype = np.min_scalar_type(math.comb(n, k))  # C(n,k) bounds every count
    if k < 2:  # every index set carries a pattern of length 0 or 1
        return np.full(size, math.comb(n, k), dtype)
    count = np.zeros(size, dtype)
    positions = np.ascontiguousarray(blk.T)  # one row per position
    for sel in _row_subsets(n, _value_order(pi), max(1, _SLAB // (max(size, 1) * k))):
        rows = positions[sel]  # (k, sets, B)
        mask = rows[0] < rows[1]
        for j in range(1, k - 1):
            mask &= rows[j] < rows[j + 1]
        count += mask.sum(axis=0, dtype=count.dtype)
    return count


def occurrence_counts(blk: np.ndarray, pi: tuple[int, ...]) -> dict[int, int]:
    """{c: #rows with exactly c occurrences of pi} over a (B, n) block
    of permutations, one per row: the histogram of
    :func:`row_occurrence_counts`.  Counts no row has are left out."""
    count = row_occurrence_counts(blk, pi)
    return {c: rows for c, rows in enumerate(np.bincount(count).tolist()) if rows}


@functools.lru_cache(maxsize=None)
def _atlas(t: int) -> np.ndarray:
    """Every comparison a lex block can make, as one bit-packed row over
    the t! columns of ``_lex_table(t)``: bit j of a row (little-endian
    within bytes) is column j, and zero bits pad each row to whole
    uint64 words, the read-only array's dtype.

      * row 0 is never true and row 1 always;
      * row 2 + a*t + b is tail[a] < tail[b];
      * row 2 + t*t + b*(t + 1) + r is tail[b] >= r, for r = 0..t;
      * row 2 + t*t + t*(t + 1) + b*(t + 1) + r is tail[b] < r.

    The rows are packed one at a time; at t = 7 the atlas holds
    2 + 7^2 + 2*7*8 = 163 rows of 632 bytes, so a uint8 indexes any row.
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


def _block_lookups(n: int, batch: int):
    """Yield the lex blocks of S_n in order, in batches of up to
    ``batch``: a (P, n - t) array of the batch's prefixes and a (P, n * n)
    uint8 array whose entry [i, x * n + y] is the ``_atlas(t)`` row of
    sigma[x] < sigma[y] in the i-th block.  With t = min(n, 7), the
    blocks are the (n - t)-value prefixes in lex order, each above the
    ``_lex_table(t)`` of the t values it leaves.

    The t values a prefix leaves fill the tail in sorted order, so two
    tail positions compare as their lex-table entries do.  A prefix
    value v exceeds exactly r of them, r = v - #(smaller prefix values),
    so v is below the value at tail position b iff tail[b] >= r.  Two
    prefix values compare the same way in every column: row 0 or row 1.
    """
    t = min(n, 7)  # at most 7! = 5040 permutations per block
    p = n - t
    ge = 2 + t * t + (t + 1) * np.arange(t)  # + r: tail[b] >= r
    lt = ge + t * (t + 1)  # + r: tail[b] < r
    tails = 2 + np.arange(t * t).reshape(t, t)  # tail[a] < tail[b]
    prefixes = itertools.permutations(range(n), p)
    while held := list(itertools.islice(prefixes, batch)):
        v = np.array(held, np.intp).reshape(len(held), p)
        lower = v[:, :, None] < v[:, None, :]
        r = v - lower.sum(axis=1)  # the tail values below each prefix value
        rows = np.empty((len(held), n, n), np.uint8)  # at most 163 atlas rows
        rows[:, p:, p:] = tails
        rows[:, :p, :p] = lower
        rows[:, :p, p:] = r[:, :, None] + ge
        rows[:, p:, :p] = lt[:, None] + r[:, None, :]
        yield v, rows.reshape(len(held), n * n)


# The S_n passes' one memory budget: bytes of carried words per run of
# blocks, counting 8 more per lookup entry, of uint8 lookups and tests per
# batch of whole runs, and of masked words per chunk in ``_hit_masks``.
_RUN = 96 << 10


def _carried_words(n: int, pi: tuple[int, ...], index_sets):
    """Yield, for each run of P consecutive lex blocks, its prefixes and
    a (P, E, W) uint64 array: row [i, e] holds, as bits packed like an
    ``_atlas`` row, the permutations of the run's i-th block that carry
    pi on ``index_sets[e]``.  The array is overwritten for the next run.

    An index set carries pi where its k - 1 tests sigma[x] < sigma[y],
    taken in pattern value order, all hold, so its row is an AND of
    k - 1 atlas rows.  For k < 2 every row is atlas row 1.  A block's
    words take 632 bytes per index set at t = 7, 53 KB for all C(9, 3)
    sets; a run holds as many blocks as fit their words, plus 8 bytes
    per entry of their lookups, in ``_RUN`` bytes, at least one.  A run
    is one gather of every set's first atlas row into its words and
    k - 2 ANDs, so a pass's temporaries are at most one run's words.
    The lookups come from ``_block_lookups`` in batches of whole runs,
    at least one, whose uint8 lookups and atlas-row tests fit ``_RUN``
    bytes: all 72 blocks of S_9 in one batch for C(9, 3) sets.  Each run
    slices its tests from its batch's.
    """
    k = len(pi)
    atlas = _atlas(min(n, 7))
    chained = np.array(index_sets, np.intp).reshape(len(index_sets), k)[:, _value_order(pi)]
    pairs = chained[:, :-1] * n + chained[:, 1:]  # flat [x, y] of each test
    per_block = len(pairs) * atlas[0].nbytes + 8 * n * n  # its words and lookup
    batch = min(math.perm(n, n - min(n, 7)), max(1, _RUN // max(1, per_block)))
    # whole runs per lookup batch; a block's lookup and tests are 0 bytes at n = 0
    runs = max(1, _RUN // max(1, batch * (n * n + pairs.size)))
    words = np.empty((batch, len(pairs), atlas.shape[1]), np.uint64)
    words[:] = atlas[1]  # the rows for k < 2; larger k overwrite them
    flat = words.reshape(-1, atlas.shape[1])
    for held, lookup in _block_lookups(n, runs * batch):
        batch_tests = lookup.take(pairs, axis=1)  # (blocks, E, k - 1) atlas rows
        for r in range(0, len(held), batch):
            prefixes = held[r:r + batch]
            tests = batch_tests[r:r + batch].reshape(len(prefixes) * len(pairs), pairs.shape[1])
            if k > 1:
                carried = flat[:len(tests)]
                # every index is valid; mode "raise" would copy through a buffer
                np.take(atlas, tests[:, 0], axis=0, out=carried, mode="clip")
                for j in range(1, k - 1):
                    carried &= atlas[tests[:, j]]
            yield prefixes, words[:len(prefixes)]


def copy_count_histogram(n: int, pi: tuple[int, ...]) -> dict[int, int]:
    """Histogram {c: #sigma in S_n with exactly c occurrences of pi}.

    Per block of each run, the carried words of all C(n,k) index sets
    are unpacked at once, summed per permutation and tallied by count.
    The unpack takes 5,040 bytes per index set at t = 7: 141 KB for
    C(8, 2) sets, about 4.7 MB for C(12, 6).

    >>> copy_count_histogram(3, (0, 1))
    {0: 1, 1: 2, 2: 2, 3: 1}
    """
    sets = list(itertools.combinations(range(n), len(pi)))
    size = math.factorial(min(n, 7))
    dtype = np.min_scalar_type(len(sets))
    # int64 holds every tally: n! < 2^63 for n <= 20, far past any pass that ends
    total = np.zeros(len(sets) + 1, np.int64)
    for _, words in _carried_words(n, pi, sets):
        for block in words:
            bits = np.unpackbits(block.view(np.uint8), axis=1, count=size, bitorder="little")
            total += np.bincount(bits.sum(axis=0, dtype=dtype), minlength=len(total))
    return {c: m for c, m in enumerate(total.tolist()) if m}


def _hit_masks(n: int, pi: tuple[int, ...], candidates, lam_block: np.ndarray):
    """Yield, per run of ``_carried_words`` and per chunk of the
    hypergraphs whose edges the rows of the (S, C) bool ``lam_block``
    mark among the C ``candidates``, the run's prefixes, the rows the
    chunk covers and an (S, P, W) uint64 array: row [s, i] marks, packed
    like the carried words, the permutations of the run's i-th block
    that carry pi on an edge of the s-th hypergraph.  Sets of only some
    rows are masked over whole runs, in chunks of as many rows as fit
    ``_RUN`` bytes of the run's masked words, at least one; with none,
    one row serves every row through the slice's broadcast.
    """
    used = lam_block.any(axis=0)
    shared = used & lam_block.all(axis=0)  # all() holds for every set of an empty block
    partial = np.flatnonzero(used ^ shared)
    sets = [candidates[e] for e in partial.tolist() + np.flatnonzero(shared).tolist()]
    select = lam_block[:, partial].astype(np.uint64) * np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    for prefixes, words in _carried_words(n, pi, sets):
        hit = np.bitwise_or.reduce(words[:, len(partial):], axis=1)
        if not len(partial):
            yield prefixes, slice(0, len(lam_block)), hit[None]
            continue
        masked = words[None, :, :len(partial)]
        step = max(1, _RUN // masked.nbytes)
        for s in range(0, len(select), step):
            hits = np.bitwise_or.reduce(select[s:s + step, None, :, None] & masked, axis=2)
            hits |= hit
            yield prefixes, slice(s, s + step), hits


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

    This is ``_hit_masks`` on a block of one hypergraph.  Only
    ``collect`` unpacks the masks, whose zero bits are the avoiders.

    >>> count_avoiders(4, (0, 2, 1), None)
    (14, None)
    >>> count_avoiders(4, (0, 2, 1), ())
    (24, None)
    """
    sets = tuple(itertools.combinations(range(n), len(pi))) if edges is None else edges
    out: list[tuple[int, ...]] | None = [] if collect else None
    tail = _lex_table(min(n, 7)) if collect else None
    count = math.factorial(n)
    for prefixes, _, hit in _hit_masks(n, pi, sets, np.ones((1, len(sets)), bool)):
        count -= int(np.bitwise_count(hit).sum())
        if collect:
            free = np.unpackbits((~hit[0]).view(np.uint8), axis=1, count=tail.shape[1],
                                 bitorder="little").view(bool)
            for prefix, mask in zip(map(tuple, prefixes.tolist()), free):
                rest = np.array(sorted(set(range(n)).difference(prefix)), np.uint8)
                out.extend(prefix + row for row in map(tuple, rest[tail[:, mask]].T.tolist()))
    return count, out


def avoider_counts(
    n: int,
    pi: tuple[int, ...],
    candidates: tuple[tuple[int, ...], ...],
    lam_block: np.ndarray,
) -> list[int]:
    """The number of sigma in S_n avoiding pi over each hypergraph of a
    block: row s of the (S, C) bool ``lam_block`` marks which of the C
    ``candidates`` index sets are edges of the s-th hypergraph.

    Each row's count is n! less the set bits of its ``_hit_masks``.
    """
    hits = np.zeros(len(lam_block), np.int64)
    for _, rows, hit in _hit_masks(n, pi, candidates, lam_block):
        hits[rows] += np.bitwise_count(hit).sum(axis=(1, 2), dtype=np.int64)
    return (math.factorial(n) - hits).tolist()


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

    When a row is one byte (at most 8 columns) and the nonzero rows
    hold at most 64 cells, each row looks up the bitset of the (row
    k-subset, column k-subset) pairs its two nibbles rule out in
    ``_nibble_sets``; the copies are the pairs that no row rules out.
    Any other matrix is ``matrix_copy_counts`` on a block of one.
    """
    rows = [b for b in row_bits if b]
    if ncols > 8 or len(rows) * ncols > 64:
        return matrix_copy_counts(unpack_rows(rows, ncols)[None], pi)[0]
    if len(pi) > min(len(rows), ncols):
        return 0  # and 64 x 1 would list all C(64, k) row subsets for no pair
    pairs, tables = _nibble_sets(len(rows), ncols, pi)
    bad = 0
    for (lo, hi), row in zip(tables, rows):
        bad |= lo[row & 15] | hi[row >> 4]
    return pairs - bad.bit_count()


@functools.lru_cache(maxsize=16)
def _nibble_sets(
    nrows: int, ncols: int, pi: tuple[int, ...]
) -> tuple[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """The number of (row k-subset, column k-subset) pairs of an
    nrows x ncols matrix, ncols <= 8, and one (lo, hi) pair of nibble
    tables per row.

    Pair (a, s), the a-th row subset and s-th column subset in lex
    order, is bit a * C(ncols, k) + s.  It puts pattern row i in row
    a[i] and column s[pi[i]].  ``lo[v]`` is the bitset of the pairs that
    need a 1 in a column of the row's low nibble where v holds a 0, so
    nibble value v rules them out; ``hi`` does the same for the high
    nibble.  A nibble of w columns has 2^w entries.

    The largest table is 8 x 8 with k = 4: 4900-bit sets, about 134 KB
    with its tuples (``sys.getsizeof``), so the cache holds at most
    16 * 134 KB, about 2.1 MB.
    """
    k = len(pi)
    col_sets = list(itertools.combinations(range(ncols), k))
    width = len(col_sets)
    at = [[0] * ncols for _ in range(k)]  # at[t][c]: column subsets with s[t] = c
    for s, cols in enumerate(col_sets):
        for t, c in enumerate(cols):
            at[t][c] |= 1 << s
    need = [[0] * ncols for _ in range(nrows)]  # need[r][c]: pairs with a 1 at (r, c)
    for a, rows in enumerate(itertools.combinations(range(nrows), k)):
        for i, r in enumerate(rows):
            for c, sets in enumerate(at[pi[i]]):
                need[r][c] |= sets << (a * width)

    def nibble(cells):
        lack = [0] * (1 << len(cells))  # lack[u]: pairs needing a column of u
        for u in range(1, len(lack)):
            low = u & -u
            lack[u] = lack[u ^ low] | cells[low.bit_length() - 1]
        return tuple(reversed(lack))  # v lacks exactly the columns of ~v

    tables = tuple((nibble(row[:4]), nibble(row[4:])) for row in need)
    return math.comb(nrows, k) * width, tables


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
    chunks, without building the table once it would pass ``_TABLE``.
    ``occurrence_counts`` reads them as index sets of positions."""
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


@functools.lru_cache(maxsize=64)
def _mask_table(ncols: int, pi: tuple[int, ...]) -> np.ndarray:
    """A read-only (k, 2^ncols, W) uint64 array, ncols <= 8: entry
    [i, v] is the bitset, over the column k-subsets s in lex order, of
    those whose column s[pi[i]] is set in the row mask v, packed
    little-endian into W words.  W is 2 only for C(8, 4) = 70 subsets.

    The largest tables (ncols = 8 with k = 4, 7 or 8) take 16 KB, so
    the cache holds at most 64 * 16 KB = 1 MB.
    """
    k = len(pi)
    sets = np.array(list(itertools.combinations(range(ncols), k)), np.intp)
    placed = sets[:, pi].T  # (k, subsets): the column of pattern row i
    bits = (np.arange(1 << ncols)[None, :, None] >> placed[:, None, :]) & 1
    table = np.zeros((k, 1 << ncols, 8 * -(-len(sets) // 64)), np.uint8)
    table[:, :, :(len(sets) + 7) // 8] = np.packbits(bits, axis=2, bitorder="little")
    table = table.view(np.uint64)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def mask_copy_counts(masks: np.ndarray, ncols: int, pi: tuple[int, ...]) -> np.ndarray:
    """Copies of the pattern's permutation matrix in each of B 0-1
    matrices of at most 8 columns, given as a (rows, B) uint8 array of
    row masks (bit j = column j), as a length-B array of the smallest
    unsigned type that holds C(rows, k) * C(ncols, k).

    Every row is looked up once per pattern row i in ``_mask_table``,
    the bitset of column k-subsets whose column of pattern row i it
    sets.  A row k-subset a hosts a copy on each column subset set in
    the AND of its rows' bitsets, row a[i] taken for pattern row i, so
    the copies are the set bits of those ANDs (``np.bitwise_count``)
    over every row subset.  The row subsets come from ``_row_subsets``
    in chunks of at most ``_SLAB`` words per AND.
    """
    nrows, size = masks.shape
    k = len(pi)
    dtype = np.min_scalar_type(math.comb(nrows, k) * math.comb(ncols, k))
    if k == 0:
        return np.ones(size, dtype)
    if k > nrows or k > ncols:
        return np.zeros(size, dtype)
    table = _mask_table(ncols, pi)
    looked = table.take(masks, axis=1)  # (k, rows, B, W)
    count = np.zeros(size, dtype)
    chunk = max(1, _SLAB // (max(size, 1) * table.shape[2]))  # row subsets per AND
    for sel in _row_subsets(nrows, tuple(range(k)), chunk):
        both = looked[0].take(sel[0], axis=0)  # (subsets, B, W)
        for i in range(1, k):
            both &= looked[i].take(sel[i], axis=0)
        count += np.bitwise_count(both).sum(axis=(0, 2), dtype=dtype)
    return count
