"""The two classifiers of an element, checked against each other element by element.

Every per-matrix answer classifies with the pure-Python matrix3.char_poly
and has_fp_eigenvalue; every group scan classifies with the uint8
scan._char_planes and the 49 bins of scan._rootless_bins.  On each element
of the stream the characteristic pair must be the same, det must be 1, and
the element must have an eigenvalue in F7 exactly when its bin is not
rootless.  Tier-1 walks one seeded 65 513-rank piece; SL3F7_SLOW walks the
whole group (about 25 s).
"""

import os
import random

import numpy as np
import pytest

from sl3f7 import scan
from sl3f7.matrix3 import GROUP_ORDER, char_poly, encode, has_fp_eigenvalue

RANKS = 49 * (scan.CHUNK // 49)  # one piece of the walk: 1 337 row pairs
LO = 49 * random.Random(0xC1A55).randrange((GROUP_ORDER - RANKS) // 49)


def _classify_chunk(d: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The codes of the elements of the planes d that the two classifiers
    disagree on, and how many elements fell in each of the 49 bins."""
    tr, jc = scan._char_planes(d)
    bins = tr * 7 + jc
    rootless = scan._rootless_bins()[bins]
    bad = [encode(m) for m, i, j, free in zip(map(tuple, d.T.tolist()), tr.tolist(),
                                              jc.tolist(), rootless.tolist())
           if char_poly(m) != ((i, j), 1) or has_fp_eigenvalue(m) == free]
    return bad, np.bincount(bins, minlength=49)


def _walk(ranges) -> tuple[list[int], np.ndarray]:
    bad, counts = [], np.zeros(49, dtype=np.int64)
    for codes, seen in scan._map_chunks(_classify_chunk, ranges):
        bad += codes
        counts += seen
    return bad, counts


def test_one_seeded_chunk_of_the_stream():
    bad, counts = _walk(((LO, LO + RANKS),))
    assert bad == []
    # every bin is met, so a flip of any one bin of _rootless_bins shows here
    assert counts.all() and counts.sum() == RANKS


@pytest.mark.skipif(
    not os.environ.get("SL3F7_SLOW"),
    reason="about 25 s of pure-Python classification; set SL3F7_SLOW=1 to walk all of G",
)
def test_every_element_of_the_group():
    bad, counts = _walk(((0, GROUP_ORDER),))
    assert bad == []
    assert counts.sum() == GROUP_ORDER
