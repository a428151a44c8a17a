"""The first-played-bin sieve.

Stage 1 is all positive integers; stage k keeps the stone counts n whose
winning board opens with a play in bin k or beyond.  Consecutive stages
are also linked by a pure position rule: stage k+1 drops the elements of
stage k sitting at positions 1, (k+1)+1, 2(k+1)+1, ...
"""

from __future__ import annotations

from .checked import as_uint

SCAN_CAP = 1_000_000


def first_played_bin(n: int) -> int:
    """The bin played first when clearing the winning board with n stones.

    Equals the smallest i whose bin holds exactly i stones; the last bin
    always does, so the scan terminates.
    """
    if as_uint(n, "stone count") < 1:
        raise ValueError("first_played_bin requires n >= 1")
    remaining = n
    i = 1
    while True:
        count = remaining % (i + 1)
        if count == i:
            return i
        remaining -= count
        i += 1


def sieve_stage(k: int, count: int, scan_cap: int = SCAN_CAP) -> list[int]:
    """First *count* elements of stage k, by direct scan over stone counts."""
    if as_uint(k, "sieve stage") < 1:
        raise ValueError("sieve stages are numbered from 1")
    if as_uint(count, "element count") < 1:
        raise ValueError("count must be >= 1")
    as_uint(scan_cap, "scan cap")
    out: list[int] = []
    n = 0
    while len(out) < count:
        n += 1
        if n > scan_cap:
            raise RuntimeError(
                f"scan cap {scan_cap} exceeded after {len(out)} of {count} elements of stage {k}"
            )
        if k == 1 or first_played_bin(n) >= k:
            out.append(n)
    return out


def sieve_step(stage: list[int], k: int) -> list[int]:
    """Advance a prefix of stage k to the corresponding prefix of stage k+1.

    Removes the entries at 1-based positions j(k+1)+1 for j >= 0 and
    re-indexes the rest.
    """
    if as_uint(k, "sieve stage") < 1:
        raise ValueError("sieve stages are numbered from 1")
    return [value for pos, value in enumerate(stage) if pos % (k + 1) != 0]
