import functools
import os
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


class InlinePool:
    """ThreadPoolExecutor stand-in that starts no thread: it records each
    pool's max_workers and, by mapped function name, the items of each
    map's input, then runs the work in the calling thread.  A pool larger
    than os.cpu_count() fails at once, before any work."""

    workers: list[int]
    inputs: dict[str, list[list]]

    def __init__(self, max_workers: int):
        assert max_workers <= os.cpu_count(), f"a pool of {max_workers} workers"
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        items = list(iterable)
        self.inputs.setdefault(fn.__name__, []).append(items)
        return map(fn, items)


@pytest.fixture
def inline_pool(monkeypatch):
    """A fresh InlinePool class on a host that reports 4 CPUs."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return type("InlinePool4", (InlinePool,), {"workers": [], "inputs": {}})
