"""The first-played-bin sieve.

Stage 1 is all positive integers; stage k keeps the stone counts n whose
winning board opens with a play in bin k or beyond.  Consecutive stages
are also linked by a pure position rule: stage k+1 drops the elements of
stage k sitting at positions 1, (k+1)+1, 2(k+1)+1, ...
"""

from __future__ import annotations

from .checked import SCAN_CAP, as_uint
from .core import _stage_element


def sieve_stage(k: int, count: int, scan_cap: int = SCAN_CAP) -> list[int]:
    """First *count* elements of stage k, among the stone counts up to *scan_cap*.

    The count-th element N comes first, from the climb that also gives
    min_stones; the position rule then sieves 1..N down to stage k, so
    the list never holds more than *scan_cap* integers.  Raises
    RuntimeError when fewer than *count* elements lie at or below
    *scan_cap*.
    """
    if as_uint(k, "sieve stage") < 1:
        raise ValueError("sieve stages are numbered from 1")
    if as_uint(count, "element count") < 1:
        raise ValueError("count must be >= 1")
    as_uint(scan_cap, "scan cap")
    last = _stage_element(k, count, scan_cap)
    if last <= scan_cap:
        # The last element is at least k, so the loop is bounded by the cap.
        # Stage 2 is the even numbers; the position rule takes it from there.
        stage = list(range(1, last + 1)) if k == 1 else list(range(2, last + 1, 2))
        for j in range(2, k):
            del stage[:: j + 1]
        return stage
    # Too few: count the members up to the cap through the same rule.
    found, j = scan_cap, 1
    while found and j < k:
        found -= -(-found // (j + 1))
        j += 1
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
    stage = list(stage)
    del stage[:: k + 1]
    return stage
