"""Four-index dynamic program over substring pairs, with witness traceback.

The table value at (i, j, k, l) is the length of the longest common
palindromic subsequence of x[i..j] and y[k..l] (1-based, inclusive bounds).
Recurrence, for i < j and k < l:

  * if x[i] == x[j] == y[k] == y[l], the value is 2 plus the value of the
    substrings with both ends peeled off, (i+1, j-1, k+1, l-1);
  * otherwise it is the maximum over dropping one character from either end
    of either substring.

Length-1 substrings score 1 exactly when their character occurs anywhere in
the other window, so every cell is individually correct, not just the root.

Storage is (x_len, i, w) with 0-based starts: an x window by its length
and start, a y window (k, l), k <= l, by its row-major triangle index
w = k*(2m - k + 1)/2 + (l - k). Empty y windows are not stored: column
m*(m+1)/2 of every start is a zero cell that stands for all of them, and
the x_len = 0 plane is 0, so peeling a length-2 window on either side reads
0 without a special case. The fill takes one x length at a time; all starts
i and all y windows of that length are one contiguous slab:

  1. at x_len = 1 the slab is the occurrence test: x[i] occurs in y[k..l]
     exactly when its first occurrence at or after k is at most l;
  2. otherwise every cell takes the larger x-side drop, two slices of the
     x_len - 1 slab (starts i + 1 and i);
  3. the rows whose ends are one symbol, x[i] == x[j] == c, are raised to
     2 + (x_len - 2, i + 1, k' + 1, l' - 1) wherever y[k..l] holds a c pair,
     with k' the first c at or after k and l' the last at or before l
     (k' < l'): the tightest pair, read from plane x_len - 2 with one take
     through c's column of the inner window (the zero column where it is
     empty or there is no pair) plus c's gain (2 where there is a pair, else
     0). Only a symbol that y holds twice can raise a row.

The inner-window column and gain of step 3 depend on a start's symbol and
the y window, not on the table, so they are gathered once per call, from
y's occurrence tables (match_index.occurrence_bounds), into one row per x
start, with the row offset of start i + 1 added; a start whose symbol is
not paired reads the zero column and gains 0. Each x length then finds its
equal-ended starts by comparing x's symbol keys with their shift by
x_len - 1; every unpaired start holds a key of its own, so ends no peel.

Step 3 is the y-side drops unrolled: following them from (k, l) reaches
every y window inside it, so the recurrence's value is the maximum, over
all contained windows (k <= k'' <= l'' <= l), of the x-side drops and, where
the four ends are equal, 2 + peel. The x-side drops already hold that
maximum at (k, l), because the x_len - 1 slab does not grow when its y
window shrinks. Every contained window whose ends are both c has
k' <= k'' and l'' <= l', so its peel lies inside the tightest pair's peel
and is no larger. A four-equal cell keeps 2 + peel: that is at least the
value of every window it contains.
"""

from __future__ import annotations

import numpy as np

from .core import CapacityExceeded, CpsResult, assemble_result
from .match_index import build_match_set, occurrence_bounds

DEFAULT_CELL_CAP = 2**26


def _column(k, l, m: int):
    """The table column of the y window (k, l), 0-based with k <= l: its
    index among the windows of y[0..m-1] in row-major triangle order."""
    return k * (2 * m - k + 1) // 2 + (l - k)


class DpTable:
    """The y windows k <= l of each x window, packed in read-only 1-byte cells
    (2-byte once both inputs reach 256); cells with an empty substring on
    either side read as 0."""

    def __init__(self, x: bytes, y: bytes, planes: np.ndarray):
        self.n = len(x)
        self.m = len(y)
        self._x = x
        self._y = y
        self._planes = planes
        planes.setflags(write=False)

    def cell(self, i: int, j: int, k: int, l: int) -> int:
        if i > j or k > l:
            return 0
        if not (1 <= i and j <= self.n and 1 <= k and l <= self.m):
            raise IndexError(f"cell ({i},{j},{k},{l}) outside a {self.n}x{self.m} instance")
        return int(self._planes[j - i + 1, i - 1, _column(k - 1, l - 1, self.m)])

    @property
    def root(self) -> int:
        """The full-string value, i.e. the LCPS length of x and y."""
        return self.cell(1, self.n, 1, self.m)


def fill_table(x: bytes, y: bytes, max_cells: int = DEFAULT_CELL_CAP) -> DpTable:
    """Fill the whole table bottom-up, shorter x windows first.

    The table holds (n+1)*n*(m*(m+1)/2 + 1) cells, uint8 while the shorter
    input is under 256 characters (a cell is at most min(n, m)) and uint16
    above. With an input empty every window is empty on one side, so the
    table holds no cell and nothing is allocated. Raises CapacityExceeded
    when n*n*m*m exceeds max_cells, or when the shorter input reaches 2**16
    so a cell value could overflow uint16; at that point the geometric
    solver (or the oracle, for tiny inputs) is the way out.
    """
    n, m = len(x), len(y)
    if n * n * m * m > max_cells:
        raise CapacityExceeded(
            f"table needs {n * n * m * m} cells, cap is {max_cells}"
        )
    if min(n, m) >= 2**16:
        raise CapacityExceeded(f"cell values up to {min(n, m)} do not fit in uint16")
    if not (n and m):
        return DpTable(x, y, np.zeros((0, 0, 0), dtype=np.uint8))
    windows = m * (m + 1) // 2  # column `windows` of every start is the zero cell
    width = windows + 1
    planes = np.zeros((n + 1, n, width), dtype=np.uint8 if min(n, m) < 256 else np.uint16)
    ms = build_match_set(x, y)
    symbols = np.flatnonzero(ms.x_count)  # x's octets, ascending
    nxt, prv = occurrence_bounds(ms.y, symbols)
    # column w is the y window (k[w], l[w]): row k of the triangle holds m - k windows
    k = np.repeat(np.arange(m), np.arange(m, 0, -1))
    l = np.arange(windows) - k * (2 * m - k - 1) // 2
    # The x_len = 1 plane: x[i] occurs in y[k..l] exactly when nxt[x[i]][k] <= l.
    sym = np.searchsorted(symbols, ms.x)  # x[i] == symbols[sym[i]]
    planes[1:2, :, :windows] = (nxt.take(k, axis=1) <= l).take(sym, axis=0)
    # Only symbols that both inputs hold twice can end a peel. Per such symbol
    # and y window: the column of the tightest pair's inner window (a, b), or
    # the zero column where it is empty or there is no pair, and the gain, 2
    # where the window holds a pair and 0 where it does not. The last row, the
    # zero column and no gain, stands for every other symbol.
    paired = (ms.x_count >= 2) & (ms.y_count >= 2)  # by octet
    held = np.searchsorted(symbols, np.flatnonzero(paired))  # their rows of nxt and prv
    a = nxt.take(held, axis=0).take(k, axis=1) + 1
    b = prv.take(held, axis=0).take(l, axis=1) - 1
    del k, l
    inner = np.full((len(a) + 1, width), windows)
    inner[:-1, :windows] = np.where(a <= b, _column(a, b, m), windows)
    gain = np.zeros((len(a) + 1, width), dtype=planes.dtype)
    gain[:-1, :windows] = 2 * (a <= b + 1)
    del a, b
    slot = np.full(256, len(held))
    slot[paired] = np.arange(len(held))
    row = slot.take(ms.x)  # start i's row of inner and gain
    # Per start i: where its peel reads in the flat plane x_len - 2 (row i + 1,
    # at the inner window's column) and what it gains.
    peel_at = inner.take(row, axis=0)
    peel_at += np.arange(width, (n + 1) * width, width)[:, None]
    gain = gain.take(row, axis=0)
    del inner
    # Starts i and j = i + x_len - 1 end a peel together exactly when their
    # keys are equal: a paired symbol's row, or a negative key of its own.
    key = np.where(row < len(held), row, -1 - np.arange(n))
    for lx in range(2, n + 1):
        count = n - lx + 1  # valid starts i = 0..n-lx
        slab = planes[lx, :count]
        np.maximum(planes[lx - 1, 1 : count + 1], planes[lx - 1, :count], out=slab)
        rows = np.flatnonzero(key[:count] == key[lx - 1 :])
        if len(rows):
            peel = planes[lx - 2].take(peel_at.take(rows, axis=0))
            peel += gain.take(rows, axis=0)
            slab[rows] = np.maximum(slab.take(rows, axis=0), peel, out=peel)
    return DpTable(x, y, planes)


def dp_lcps(x: bytes, y: bytes, max_cells: int = DEFAULT_CELL_CAP) -> CpsResult:
    """Fill the table and trace one maximal witness back through it. The
    longer input goes on the x side, and the witness is swapped back; an
    empty input gets a table with no cells and the empty result."""
    if len(x) < len(y):
        r = dp_lcps(y, x, max_cells)
        return CpsResult(r.length, r.z, r.y_indices, r.x_indices)
    return _traceback(fill_table(x, y, max_cells))


def _traceback(t: DpTable) -> CpsResult:
    """Walk from the root along the fill's own transition, on the planes.

    At each x window (start i, length lx) and y window (k, l): a length-1 x
    window is the centre, its symbol's first occurrence in the y window.
    Otherwise an x-side drop that keeps the value is taken, the start
    before the end. When neither keeps it, the window's ends are one symbol
    c and the value is 2 plus the inner window of y's tightest c pair: the
    pair is recorded and the walk steps inside it, to plane lx - 2. Each
    step shortens the x window, so the walk has at most n steps.
    """
    x, y, planes, m = t._x, t._y, t._planes, t.m
    i, lx, k, l = 0, t.n, 0, m - 1  # 0-based start, x length, y window
    pairs = []
    center = None
    while lx and k <= l:
        w = _column(k, l, m)
        value = planes[lx, i, w]
        if value == 0:
            break
        ch = x[i]
        if lx == 1:
            center = (ch, i + 1, y.find(ch, k, l + 1) + 1)
            break
        if planes[lx - 1, i + 1, w] == value:
            i += 1
            lx -= 1
        elif planes[lx - 1, i, w] == value:
            lx -= 1
        else:
            a, b = y.find(ch, k, l + 1), y.rfind(ch, k, l + 1)
            pairs.append((ch, i + 1, i + lx, a + 1, b + 1))
            i, lx, k, l = i + 1, lx - 2, a + 1, b - 1
    return assemble_result(pairs, center)
