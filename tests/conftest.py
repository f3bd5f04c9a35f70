import functools
import random

import numpy as np
import pytest

from sl3f7.matrix3 import CODE_SPACE, Mat3, decode, det


def code_planes(codes) -> np.ndarray:
    """Digit planes of MatCodes by numpy division, (9, len(codes)) uint8: plane k
    holds the digit of 7^k, so row 1 is planes 0..2 and row 3 planes 6..8."""
    q = np.asarray(codes, dtype=np.int64)
    return np.array([q // 7**k % 7 for k in range(9)], dtype=np.uint8)


def random_sl3(rng: random.Random) -> Mat3:
    """Uniform SL3(F7) element by rejection sampling over the code space."""
    while True:
        m = decode(rng.randrange(CODE_SPACE))
        if det(m) == 1:
            return m


@functools.cache
def least_sl3() -> Mat3:
    """The det-1 matrix of least MatCode, by a pure-Python scan from code 0."""
    return next(m for m in map(decode, range(CODE_SPACE)) if det(m) == 1)


def random_gl3(rng: random.Random) -> Mat3:
    while True:
        m = decode(rng.randrange(CODE_SPACE))
        if det(m) != 0:
            return m


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x53137)
