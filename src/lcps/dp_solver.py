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

Storage is (x_len, i, k, l) with 0-based starts and ends: an x window by its
length and start, a y window by its start and end. Cells with l < k (an
empty y window) and the x_len = 0 plane stay 0, so peeling a length-2
window on either side reads 0 without a special case. The fill takes one x length at a
time; all starts i and all y windows (k, l) of that length are one
contiguous slab:

  1. every cell takes the larger x-side drop, two slices of the x_len - 1
     slab (starts i + 1 and i); at x_len = 1 the slab is seeded instead
     with x[i] == y[k] on the diagonal l = k;
  2. cells whose four ends are equal (k < l) are overwritten with
     2 + (x_len - 2, i + 1, k + 1, l - 1);
  3. two in-place running maxima, ascending along l and then descending
     along k, close the y-side drops.

Step 3 is the y-side drops unrolled: following them from (k, l) reaches
every y window inside it, so the recurrence's value is the maximum of steps
1 and 2 over all contained windows (k <= k' <= l' <= l), and that is what
the two running maxima compute. A four-equal cell is not lowered by this,
and not raised either: 2 + peel is at least the value of every window it
contains.
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
        return int(self._planes[j - i + 1, i - 1, k - 1, l - 1])

    @property
    def root(self) -> int:
        """The full-string value, i.e. the LCPS length of x and y."""
        return self.cell(1, self.n, 1, self.m)


def fill_table(x: bytes, y: bytes, max_cells: int = DEFAULT_CELL_CAP) -> DpTable:
    """Fill the whole table bottom-up, shorter x windows first.

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
    planes = np.zeros((n + 1, n, m, m), dtype=np.uint16)
    xs = np.frombuffer(x, dtype=np.uint8)
    ys = np.frombuffer(y, dtype=np.uint8)
    cross = xs[:, None] == ys[None, :]  # x[i] == y[k], 0-based
    # pair_at[i, k, l]: x[i] == y[k] == y[l] with k < l, the four-equal test
    # once x[i] also equals the window's last symbol.
    pair_at = cross[:, :, None] & np.triu(ys[:, None] == ys[None, :], 1)
    for lx in range(1, n + 1):
        count = n - lx + 1  # valid starts i = 0..n-lx
        slab = planes[lx, :count]
        if lx == 1:
            diag = np.arange(m)
            slab[:, diag, diag] = cross
        else:
            np.maximum(planes[lx - 1, 1 : count + 1], planes[lx - 1, :count], out=slab)
            four = pair_at[:count, :-1, 1:] & (xs[:count] == xs[lx - 1 :])[:, None, None]
            np.add(planes[lx - 2, 1 : count + 1, 1:, :-1], 2, out=slab[:, :-1, 1:], where=four)
        # y-side drops: each cell becomes the max over the y windows it contains
        np.maximum.accumulate(slab, axis=2, out=slab)
        descending = slab[:, ::-1]
        np.maximum.accumulate(descending, axis=1, out=descending)
    planes.setflags(write=False)
    return DpTable(x, y, planes)


def dp_lcps(x: bytes, y: bytes, max_cells: int = DEFAULT_CELL_CAP) -> CpsResult:
    """Fill the table and trace one maximal witness back through it. The
    longer input goes on the x side, and the witness is swapped back."""
    if len(x) < len(y):
        r = dp_lcps(y, x, max_cells)
        return CpsResult(r.length, r.z, r.y_indices, r.x_indices)
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
