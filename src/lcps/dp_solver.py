"""Four-index dynamic program over substring pairs, with witness traceback.

The table value at (i, j, k, l) is the length of the longest common
palindromic subsequence of x[i..j] and y[k..l] (1-based, inclusive bounds).
Recurrence, for i < j and k < l:

  * if x[i] == x[j] == y[k] == y[l], the value is 2 plus the value of the
    substrings with both ends peeled off, (i+1, j-1, k+1, l-1);
  * otherwise it is the maximum over dropping one character from either end
    of either substring.

Length-1 substrings score 1 exactly when their character occurs anywhere in
the other window, which is resolved from per-symbol prefix counts so every
cell is individually correct, not just the root.

Storage is laid out by substring length, (x_len, i, y_len, k), so the fill
runs as vectorized slabs. Slabs are batched by total length x_len + y_len:
all dependencies of a batch live in earlier batches, and each batch is a
handful of numpy gathers over contiguous index planes. Slab rows beyond a
length's valid start range hold garbage, but no in-range cell ever reads
them and the accessor cannot address them.
"""

from __future__ import annotations

import numpy as np

from .core import CapacityExceeded, CpsResult, assemble_result

DEFAULT_CELL_CAP = 2**26


class DpTable:
    """Dense uint16 table; cells with an empty substring on either side read as 0."""

    def __init__(self, x: bytes, y: bytes, planes: np.ndarray):
        self.n = len(x)
        self.m = len(y)
        self._x = x
        self._y = y
        self._planes = planes

    def cell(self, i: int, j: int, k: int, l: int) -> int:
        if i > j or k > l:
            return 0
        if not (1 <= i and j <= self.n and 1 <= k and l <= self.m):
            raise IndexError(f"cell ({i},{j},{k},{l}) outside a {self.n}x{self.m} instance")
        return int(self._planes[j - i + 1, i, l - k + 1, k])

    @property
    def root(self) -> int:
        """The full-string value, i.e. the LCPS length of x and y."""
        return self.cell(1, self.n, 1, self.m)


def fill_table(x: bytes, y: bytes, max_cells: int = DEFAULT_CELL_CAP) -> DpTable:
    """Fill the whole table bottom-up, shorter substring pairs first.

    Raises CapacityExceeded when n*n*m*m exceeds max_cells, or when the
    shorter input reaches 2**16 so a cell value could overflow uint16; at
    that point the geometric solver (or the oracle, for tiny inputs) is the
    way out.
    """
    n, m = len(x), len(y)
    if n * n * m * m > max_cells:
        raise CapacityExceeded(
            f"table needs {n * n * m * m} cells, cap is {max_cells}"
        )
    if min(n, m) >= 2**16:
        raise CapacityExceeded(f"cell values up to {min(n, m)} do not fit in uint16")
    planes = np.zeros((n + 1, n + 1, m + 1, m + 1), dtype=np.uint16)
    if n == 0 or m == 0:
        planes.setflags(write=False)
        return DpTable(x, y, planes)

    xs = np.frombuffer(x, dtype=np.uint8).astype(np.int16)
    ys = np.frombuffer(y, dtype=np.uint8).astype(np.int16)

    # Length-1 bases from prefix occurrence counts. occ_y[c, t] counts c in
    # y[1..t]; x's character occurs in y[k..k+ylen-1] iff the count grows
    # across that window. Same construction transposed for length-1 y.
    occ_y = np.zeros((256, m + 1), dtype=np.int32)
    occ_y[ys, np.arange(1, m + 1)] = 1
    np.cumsum(occ_y, axis=1, out=occ_y)
    x_row = occ_y[xs]  # (n, m+1)
    ends = np.minimum(np.arange(1, m + 1)[:, None] + np.arange(m)[None, :], m)
    planes[1, 1 : n + 1, 1 : m + 1, 1 : m + 1] = (
        x_row[:, ends] - x_row[:, None, 0:m] > 0
    )

    occ_x = np.zeros((256, n + 1), dtype=np.int32)
    occ_x[xs, np.arange(1, n + 1)] = 1
    np.cumsum(occ_x, axis=1, out=occ_x)
    y_row = occ_x[ys]  # (m, n+1)
    ends = np.minimum(np.arange(1, n + 1)[:, None] + np.arange(n)[None, :], n)
    present = y_row[:, ends] - y_row[:, None, 0:n] > 0  # (k, x_len, i)
    planes[1 : n + 1, 1 : n + 1, 1, 1 : m + 1] = present.transpose(1, 2, 0)

    if n < 2 or m < 2:
        planes.setflags(write=False)
        return DpTable(x, y, planes)

    # Symbol lookups padded with a sentinel so end positions past the input,
    # which only occur on garbage slab rows, never compare equal.
    xpad = np.full(2 * n + 2, -1, dtype=np.int16)
    xpad[1 : n + 1] = xs
    ypad = np.full(2 * m + 2, -1, dtype=np.int16)
    ypad[1 : m + 1] = ys
    cross = xs[:, None] == ys[None, :]  # x[i] == y[k], 0-based

    ivec = np.arange(1, n)  # valid starts for x_len >= 2 all satisfy i <= n-1
    kvec = np.arange(1, m)
    i3 = ivec[None, :, None]
    k3 = kvec[None, None, :]
    for total in range(4, n + m + 1):
        lx = np.arange(max(2, total - m), min(n, total - 2) + 1)
        if lx.size == 0:
            continue
        ly = total - lx
        lx3 = lx[:, None, None]
        ly3 = ly[:, None, None]
        eqx = xpad[ivec[None, :]] == xpad[ivec[None, :] + (lx - 1)[:, None]]
        eqy = ypad[kvec[None, :]] == ypad[kvec[None, :] + (ly - 1)[:, None]]
        four_equal = eqx[:, :, None] & eqy[:, None, :] & cross[None, : n - 1, : m - 1]
        inner = planes[lx3 - 2, i3 + 1, ly3 - 2, k3 + 1]
        best = np.maximum(
            np.maximum(planes[lx3 - 1, i3 + 1, ly3, k3], planes[lx3 - 1, i3, ly3, k3]),
            np.maximum(planes[lx3, i3, ly3 - 1, k3 + 1], planes[lx3, i3, ly3 - 1, k3]),
        )
        planes[lx3, i3, ly3, k3] = np.where(four_equal, inner + 2, best)
    planes.setflags(write=False)
    return DpTable(x, y, planes)


def dp_lcps(x: bytes, y: bytes, max_cells: int = DEFAULT_CELL_CAP) -> CpsResult:
    """Fill the table and trace one maximal witness back through it."""
    return _traceback(fill_table(x, y, max_cells))


def _traceback(t: DpTable) -> CpsResult:
    """Walk from the root cell, peeling matched ends and following maxima.

    When several of the four shrink moves tie, the first in the order
    (i+1,j,k,l), (i,j-1,k,l), (i,j,k+1,l), (i,j,k,l-1) is taken, so the
    witness is deterministic. Each step shrinks at least one bound, giving
    O(n+m) steps.
    """
    x, y = t._x, t._y
    i, j, k, l = 1, t.n, 1, t.m
    pairs = []
    center = None
    while i <= j and k <= l:
        value = t.cell(i, j, k, l)
        if value == 0:
            break
        if i == j or k == l:
            # value is 1: a single character common to both windows
            if i == j:
                ch = x[i - 1]
                center = (ch, i, y.find(ch, k - 1, l) + 1)
            else:
                ch = y[k - 1]
                center = (ch, x.find(ch, i - 1, j) + 1, k)
            break
        if x[i - 1] == x[j - 1] == y[k - 1] == y[l - 1]:
            pairs.append((x[i - 1], i, j, k, l))
            i += 1
            j -= 1
            k += 1
            l -= 1
        elif t.cell(i + 1, j, k, l) == value:
            i += 1
        elif t.cell(i, j - 1, k, l) == value:
            j -= 1
        elif t.cell(i, j, k + 1, l) == value:
            k += 1
        else:
            l -= 1
    return assemble_result(pairs, center)
