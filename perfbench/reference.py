"""Independent LCPS length, used by the benchmark's correctness gate.

It shares no code with ``lcps``. A common palindromic subsequence of length
at least 2 can always be rewritten so that its outer symbol c sits at the
first and last occurrence of c in both windows. So the length of windows
x[i..j], y[k..l] is the best, over symbols c present in both, of 1 (c alone)
or 2 plus the length of the windows strictly inside those occurrences. Every
window reached this way is bounded by same-symbol occurrences, so the number
of memoised windows is at most the geometric solver's rectangle count plus 1.
"""

from __future__ import annotations

import numpy as np


def _occurrence_tables(s: bytes, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """nxt[p][t] / prv[p][t]: first occurrence at or after / last at or before
    1-based position p of symbols[t]; len(s)+1 / 0 when there is none."""
    size = len(s)
    hit = np.frombuffer(s, dtype=np.uint8)[None, :] == symbols[:, None]
    pos = np.arange(1, size + 1)
    prv = np.zeros((symbols.size, size + 2), dtype=np.int64)
    prv[:, 1 : size + 1] = np.maximum.accumulate(np.where(hit, pos, 0), axis=1)
    nxt = np.full((symbols.size, size + 2), size + 1, dtype=np.int64)
    nxt[:, 1 : size + 1] = np.minimum.accumulate(
        np.where(hit, pos, size + 1)[:, ::-1], axis=1
    )[:, ::-1]
    return nxt.T.copy(), prv.T.copy()


def lcps_length(x: bytes, y: bytes) -> int:
    """Length of a longest common palindromic subsequence of x and y.

    Recursion depth is at most min(len(x), len(y)) / 2 + 1, which stays far
    below the interpreter's limit for the benchmark's inputs (n <= 600).
    """
    symbols = np.array(sorted(set(x) & set(y)), dtype=np.int64)
    if symbols.size == 0:
        return 0
    nx, px = _occurrence_tables(x, symbols)
    ny, py = _occurrence_tables(y, symbols)
    memo: dict[tuple[int, int, int, int], int] = {}

    def best(i: int, j: int, k: int, l: int) -> int:
        key = (i, j, k, l)
        if key in memo:
            return memo[key]
        a, c = nx[i], ny[k]
        present = (a <= j) & (c <= l)
        value = 0
        if present.any():
            value = 1
            b, d = px[j], py[l]
            cand = np.flatnonzero(present & (a < b) & (c < d))
            # 2 + the shorter inner window bounds each candidate; try the
            # largest bounds first and stop once none can beat the best.
            bound = np.minimum(b[cand] - a[cand], d[cand] - c[cand]) + 1
            for t in np.argsort(-bound, kind="stable").tolist():
                if bound[t] <= value:
                    break
                sym = cand[t]
                inner = best(int(a[sym]) + 1, int(b[sym]) - 1, int(c[sym]) + 1, int(d[sym]) - 1)
                value = max(value, 2 + inner)
        memo[key] = value
        return value

    return best(1, len(x), 1, len(y))
