"""The first-played-bin sieve.

Stage 1 is all positive integers; stage k keeps the stone counts n whose
winning board opens with a play in bin k or beyond.  Consecutive stages
are also linked by a pure position rule: stage k+1 drops the elements of
stage k sitting at positions 1, (k+1)+1, 2(k+1)+1, ...
"""

from __future__ import annotations

import math
from operator import add

from .checked import SCAN_CAP, as_uint
from .core import _STAGES, _stage6_tile, _stage_element


def sieve_stage(k: int, count: int, scan_cap: int = SCAN_CAP) -> list[int]:
    """First *count* elements of stage k, among the stone counts up to *scan_cap*.

    The count-th element N comes first, from the climb that also gives
    min_stones, and is checked against *scan_cap*.  Stages 1-6 repeat
    with period lcm(2..k), so for k <= 6 the list is tiled straight from
    one period's members.  For k > 6 stage 6 is tiled up to N, 5 bytes
    per member, and the position rule sieves it down to stage k; past
    the returned ints the call holds at most that tile, N/6 members.
    Raises RuntimeError when fewer than *count* elements lie at or below
    *scan_cap*, and OverflowError for k > 6 when N passes 2^32 - 1, the
    largest tile entry.
    """
    if as_uint(k, "sieve stage") < 1:
        raise ValueError("sieve stages are numbered from 1")
    if as_uint(count, "element count") < 1:
        raise ValueError("count must be >= 1")
    as_uint(scan_cap, "scan cap")
    last = _stage_element(k, count, scan_cap)
    if last <= scan_cap:
        # The last element is at least k, so the loop is bounded by the cap.
        if k <= 2:
            # The positive integers and the even numbers.
            return list(range(k, k * count + 1, k))
        if k <= 6:
            # Stage k is periodic mod lcm(2..k), with period/k members per
            # period: one column per member, count entries in all.
            period = math.lcm(*range(2, k + 1))
            residues = _STAGES[k - 1][: period // k]
            width, periods = len(residues), -(-count // len(residues))
            stage = [0] * (width * periods)
            for j, residue in enumerate(residues):
                stage[j::width] = range(residue, period * periods + 1, period)
            del stage[count:]
            return stage
        if last >> 32:
            raise OverflowError(f"stage {k} up to {last} passes the 32-bit entries of the sieved stage")
        # Stage 6 up to the last element; the position rule takes it from there.
        tops, residues = _stage6_tile(last)
        for j in range(6, k):
            del tops[:: j + 1]
            del residues[:: j + 1]
        del tops[count:], residues[count:]
        return list(map(add, tops, residues))
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
