"""The paper's maximality reduction, checked on every element outside H.

Each A in SL3(F7) with a nonzero (2,1) or (3,1) entry must reduce to Y and
to Z by multiplications in H (subgroups.maximality_witness), so that H and A
generate the group.  The walk reads the element stream with _map_chunks and
stops at the first piece that holds a failure, naming its first code.
Tier-1 walks one seeded slice of 168 row pairs, 8 232 ranks (about 0.5 s);
SL3F7_SLOW walks the whole group, |G| - |H| = 5 531 904 reductions (about
6.5 min).
"""

import os
import random

import numpy as np
import pytest

from sl3f7 import scan
from sl3f7.matrix3 import GROUP_ORDER, encode
from sl3f7.subgroups import PARABOLIC_ORDER, in_parabolic, maximality_witness

# The stream holds one block of scan._R3_BLOCK ranks per third row, in code
# order.  The slice, whole row pairs of 49 ranks, straddles the start of a
# seeded block whose third row has (3,1) entry 0, so it meets elements outside
# H by either entry and inside H.
RANKS = 49 * 168
LO = (7 * random.Random(0x3A81).randrange(1, 49) - 1) * scan._R3_BLOCK - RANKS // 2


def _fails(m) -> bool:
    try:
        return not maximality_witness(m)
    except Exception:  # a broken reduction may stop on its own asserts or on 1/0
        return True


def _witness_chunk(d: np.ndarray) -> tuple[int | None, int]:
    """The first code outside H in the planes d whose reduction fails, if
    any, and how many elements of d lie outside H."""
    outside = d[:, (d[3] | d[6]) != 0]
    bad = next((m for m in map(tuple, outside.T.tolist()) if _fails(m)), None)
    return (None if bad is None else encode(bad)), outside.shape[1]


def _walk(ranges) -> tuple[int | None, int]:
    total = 0
    for bad, seen in scan._map_chunks(_witness_chunk, ranges):
        total += seen
        if bad is not None:
            return bad, total
    return None, total


def test_one_seeded_slice_of_the_stream():
    bad, seen = _walk(((LO, LO + RANKS),))
    assert bad is None, f"maximality_witness fails on code {bad}"
    members = next(scan._map_chunks(lambda d: d.T.tolist(), ((LO, LO + RANKS),)))
    inside = sum(in_parabolic(tuple(m)) for m in members)
    assert 0 < inside < seen == RANKS - inside


@pytest.mark.skipif(
    not os.environ.get("SL3F7_SLOW"),
    reason="about 6.5 min of reductions; set SL3F7_SLOW=1 to walk all of G outside H",
)
def test_every_element_outside_h():
    bad, seen = _walk(((0, GROUP_ORDER),))
    assert bad is None, f"maximality_witness fails on code {bad}"
    assert seen == GROUP_ORDER - PARABOLIC_ORDER == 5_531_904
