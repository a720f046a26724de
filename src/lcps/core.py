"""Shared domain types, witness checks, and the package's error classes.

Sequences are plain ``bytes``; a symbol is one octet. All positions exposed
by this package are 1-based: position 1 is the first character of an input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class CapacityExceeded(Exception):
    """The input exceeds a configured size cap; use another algorithm or raise the cap."""


class InputTooLarge(Exception):
    """The input is beyond the hard guard of the exhaustive solver."""


class InvalidWitness(Exception):
    """A result does not validate against the inputs it claims to embed into."""


@dataclass(frozen=True)
class CpsResult:
    """A common palindromic subsequence together with its embeddings.

    ``z`` is the palindrome itself. ``x_indices`` and ``y_indices`` are the
    strictly increasing 1-based positions realizing ``z`` inside each input;
    both have exactly ``length`` entries.
    """

    length: int
    z: bytes
    x_indices: tuple[int, ...]
    y_indices: tuple[int, ...]


EMPTY_RESULT = CpsResult(0, b"", (), ())


def is_palindrome(z: bytes) -> bool:
    """True iff z reads the same forward and backward; the empty string counts."""
    return z == z[::-1]


def embed_greedy(z: bytes, x: bytes) -> Optional[tuple[int, ...]]:
    """Leftmost 1-based positions embedding z into x in order, or None."""
    out = []
    start = 0
    for ch in z:
        pos = x.find(ch, start)
        if pos < 0:
            return None
        out.append(pos + 1)
        start = pos + 1
    return tuple(out)


def validate_witness(r: CpsResult, x: bytes, y: bytes) -> bool:
    """Check every CpsResult invariant against the two inputs.

    Lengths must agree, z must be a palindrome, and each index list must be
    strictly increasing, in range, and spell out z in its sequence.
    """
    if not (r.length == len(r.z) == len(r.x_indices) == len(r.y_indices)):
        return False
    if not is_palindrome(r.z):
        return False
    for seq, indices in ((x, r.x_indices), (y, r.y_indices)):
        prev = 0
        for pos, ch in zip(indices, r.z):
            if pos <= prev or pos > len(seq) or seq[pos - 1] != ch:
                return False
            prev = pos
    return True


def assemble_result(pairs, center=None) -> CpsResult:
    """Build a CpsResult from matched end pairs listed outermost first.

    ``pairs`` holds (symbol, x_left, x_right, y_left, y_right) tuples, one per
    two-ended palindrome symbol; ``center`` is an optional (symbol, x_pos,
    y_pos) middle character of an odd-length palindrome.
    """
    left = bytes(p[0] for p in pairs)
    mid = bytes([center[0]]) if center else b""
    z = left + mid + left[::-1]
    x_idx = [p[1] for p in pairs]
    y_idx = [p[3] for p in pairs]
    if center:
        x_idx.append(center[1])
        y_idx.append(center[2])
    x_idx.extend(p[2] for p in reversed(pairs))
    y_idx.extend(p[4] for p in reversed(pairs))
    return CpsResult(len(z), z, tuple(x_idx), tuple(y_idx))
