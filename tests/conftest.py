import functools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from sl3f7 import scan
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


def element_at(rank: int) -> Mat3:
    """The det-1 element of the given rank in the stream's ascending MatCode order."""
    return tuple(scan._element_planes(rank // 49, rank // 49 + 1)[:, rank % 49].tolist())


@functools.cache
def least_sl3() -> Mat3:
    """The det-1 matrix of least MatCode, by a pure-Python scan from code 0."""
    return next(m for m in map(decode, range(CODE_SPACE)) if det(m) == 1)


def random_gl3(rng: random.Random) -> Mat3:
    while True:
        m = decode(rng.randrange(CODE_SPACE))
        if det(m) != 0:
            return m


SCHEMA_FILE = Path(__file__).parent / "sl3f7-v1.schema.json"


@functools.cache
def schema_validator():
    """The draft 2020-12 validator of the sl3f7/v1 contract.  jsonschema is a
    [test] dependency, imported here so that the tests that never validate
    a document still run without it."""
    import jsonschema

    return jsonschema.Draft202012Validator(json.loads(SCHEMA_FILE.read_text(encoding="utf-8")))


def check_document(doc) -> None:
    """Raise jsonschema.ValidationError unless doc is a sl3f7/v1 document."""
    schema_validator().validate(doc)


@pytest.fixture
def no_group_pass(monkeypatch) -> None:
    """Make every walk of the det-1 element stream raise: _pieces, which
    each group scan iterates, and _stream_tables, which each stream plane is
    read from, so a per-matrix answer that touches the stream fails."""
    def walked(*args, **kwargs):
        raise AssertionError("a per-matrix answer walked the element stream")

    monkeypatch.setattr(scan, "_pieces", walked)
    monkeypatch.setattr(scan, "_stream_tables", walked)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x53137)
