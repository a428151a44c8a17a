"""The first-played-bin sieve.

Stage 1 is all positive integers; stage k keeps the stone counts n whose
winning board opens with a play in bin k or beyond.  Consecutive stages
are also linked by a pure position rule: stage k+1 drops the elements of
stage k sitting at positions 1, (k+1)+1, 2(k+1)+1, ...
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .checked import as_uint
from .core import _first_played_bin

SCAN_CAP = 1_000_000


def sieve_stage(k: int, count: int, scan_cap: int = SCAN_CAP) -> list[int]:
    """First *count* elements of stage k, by a scan of stone counts up to *scan_cap*.

    Membership depends only on bins 1..k-1, which repeat with period
    lcm(2..k) in n, so one period is scanned and its members repeat,
    shifted by multiples of the period.  Raises RuntimeError when fewer
    than *count* elements lie at or below *scan_cap*.
    """
    if as_uint(k, "sieve stage") < 1:
        raise ValueError("sieve stages are numbered from 1")
    if as_uint(count, "element count") < 1:
        raise ValueError("count must be >= 1")
    as_uint(scan_cap, "scan cap")
    # The period is built one factor at a time and abandoned past the cap,
    # so a huge k costs no lcm over a huge range.
    period = 1
    for factor in range(2, k + 1):
        period = math.lcm(period, factor)
        if period > scan_cap:
            break
    members: list[int] = []
    for n in range(1, min(period, scan_cap) + 1):
        if _first_played_bin(n) >= k:
            members.append(n)
            if len(members) == count:
                return members
    found = len(members)
    if period <= scan_cap:
        # n = period is a member (its bins 1..k-1 are those of n = 0), so
        # members is not empty.
        blocks, last = divmod(count - 1, found)
        if members[last] + blocks * period <= scan_cap:
            out = [m + b * period for b in range(blocks + 1) for m in members]
            del out[count:]
            return out
        blocks, rest = divmod(scan_cap, period)
        found = blocks * found + bisect_right(members, rest)
    raise RuntimeError(
        f"scan cap {scan_cap} exceeded after {found} of {count} elements of stage {k}"
    )


def sieve_step(stage: list[int], k: int) -> list[int]:
    """Advance a prefix of stage k to the corresponding prefix of stage k+1.

    Removes the entries at 1-based positions j(k+1)+1 for j >= 0 and
    re-indexes the rest.
    """
    if as_uint(k, "sieve stage") < 1:
        raise ValueError("sieve stages are numbered from 1")
    return [value for pos, value in enumerate(stage) if pos % (k + 1) != 0]
