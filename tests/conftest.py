import functools
import random

import pytest

from sl3f7.matrix3 import CODE_SPACE, Mat3, decode, det


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
