"""Commuting tuples of eigenvector-free matrices and simultaneous conjugacy.

A commuting collection that contains one eigenvector-free matrix consists
entirely of powers of a single order-57 generator (the centralizer of an
eigenvector-free matrix is cyclic of order 57).  Tuples are therefore
normalized to (base, exponents).  The g with g a1 g^-1 = a2 (first members)
form one coset of C(a1) = <base1>, which fixes every member of the first tuple,
so the tuples are simultaneously conjugate iff the least such g pairs them all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .classify import ClassLabel, KNOWN_REPRESENTATIVES, NotInSL3, class_label
from .matrix3 import (
    IDENTITY,
    Mat3,
    decode,
    det,
    has_fp_eigenvalue,
    is_scalar,
    mat_mul,
    mat_powers,
    mat_scale,
    parse_matrix,
)
from .scan import intertwiners


class NotCommuting(ValueError):
    """Some pair in the input fails AB = BA."""


class EmptyAfterScalarStrip(ValueError):
    """Only scalar matrices (I, 2I, 4I) were supplied."""


class LengthMismatch(ValueError):
    """decide_simconj needs tuples of equal length."""


class IncompleteCover(RuntimeError):
    """The 54 non-scalar powers failed to cover all 18 labels: a bug."""


@dataclass(frozen=True)
class CommutingTuple:
    """Non-scalar commuting members expressed as powers of one generator."""

    members: tuple[Mat3, ...]
    base: Mat3  # centralizer generator, order 57
    exponents: tuple[int, ...]
    stripped: tuple[tuple[int, Mat3], ...] = ()  # (original index, scalar)


@dataclass(frozen=True)
class AllEigen:
    """Every non-scalar member has an eigenvector; outside the decision scope."""

    members: tuple[Mat3, ...]
    stripped: tuple[tuple[int, Mat3], ...] = ()


@dataclass(frozen=True)
class SimConjVerdict:
    equivalent: bool
    witness: Mat3 | None = None
    certificate: str | None = None


def _check_commuting(ms: tuple[Mat3, ...]) -> None:
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if mat_mul(ms[i], ms[j]) != mat_mul(ms[j], ms[i]):
                raise NotCommuting(f"members {i} and {j} do not commute")


def analyze_tuple(ms) -> CommutingTuple | AllEigen:
    """Normalize a commuting tuple; scalars are stripped and recorded.

    If some remaining member is eigenvector-free, its centralizer in SL3 is
    cyclic of order 57, the powers of base (the member itself when it has
    order 57, otherwise twice the member).  Every member has det 1 and
    commutes with it, so discrete log over the power table locates each one.
    """
    ms = tuple(tuple(v % 7 for v in m) for m in ms)
    if not ms:
        raise ValueError("empty tuple")
    for k, m in enumerate(ms):
        if det(m) != 1:
            raise NotInSL3(f"member {k} has det {det(m)}, expected 1")
    _check_commuting(ms)

    # the det-1 scalars are exactly I, 2I and 4I
    stripped = tuple((k, m) for k, m in enumerate(ms) if is_scalar(m))
    members = tuple(m for m in ms if not is_scalar(m))
    if not members:
        raise EmptyAfterScalarStrip("all members are I, 2I or 4I")

    anchor = next((m for m in members if not has_fp_eigenvalue(m)), None)
    if anchor is None:
        return AllEigen(members=members, stripped=stripped)

    walk = mat_powers(anchor, 56)
    powers = list(itertools.islice(walk, 19))
    if powers[18] != IDENTITY:
        base, powers = anchor, powers + list(walk)
    else:  # anchor has order 19: base = 2 * anchor, base^k = 2^k anchor^(k mod 19)
        base = mat_scale(2, anchor)
        powers = [mat_scale(pow(2, k, 7), powers[k % 19 - 1]) for k in range(1, 57)]
    # base has order 57 and no member is scalar, so m = base^k for one k in 1..56
    power_index = {p: k for k, p in enumerate(powers, 1)}
    if not all(m in power_index for m in members):
        raise AssertionError("a member commuting with base is not one of its 57 powers")
    exponents = tuple(power_index[m] for m in members)
    return CommutingTuple(members=members, base=base, exponents=exponents, stripped=stripped)


# the det-1 matrix of least MatCode, 120_344: every g conjugates lam*I to itself
_LEAST_SL3: Mat3 = (0, 0, 6, 0, 1, 0, 1, 0, 0)


def find_conjugator(a: Mat3, b: Mat3) -> Mat3 | None:
    """Least-MatCode g in SL3 with g a g^-1 = b, or None when a, b are not
    conjugate: _LEAST_SL3 when a = b is scalar, else the first code of
    intertwiners(a, b), exactly verified before return."""
    if det(a) != 1 or det(b) != 1:
        raise NotInSL3("find_conjugator needs det-1 matrices")
    if a == b and is_scalar(a):
        return _LEAST_SL3
    codes = intertwiners(a, b)
    g = decode(int(codes[0])) if codes.size else None
    assert g is None or mat_mul(g, a) == mat_mul(b, g)
    return g


def decide_simconj(t1: CommutingTuple, t2: CommutingTuple) -> SimConjVerdict:
    """Simultaneous-conjugacy decision for normalized commuting tuples.

    Equivalent iff the member labels agree and g = find_conjugator(a1, a2),
    for the first members, has g a_k = b_k g for every k: each conjugator of
    a1 onto a2 is g c with c in C(a1) = <t1.base>, and c fixes every member
    of t1.  g is the witness.  The stripped scalars are compared first, so
    LengthMismatch means the original lengths differ.
    """
    if t1.stripped != t2.stripped:
        return SimConjVerdict(
            equivalent=False,
            certificate="stripped scalar members differ (conjugation fixes scalars)",
        )
    if len(t1.members) != len(t2.members):
        raise LengthMismatch(f"{len(t1.members)} vs {len(t2.members)} members")

    for k, (a_k, b_k) in enumerate(zip(t1.members, t2.members)):
        if class_label(a_k) != class_label(b_k):
            return SimConjVerdict(
                equivalent=False, certificate=f"class mismatch at index {k}"
            )
    g = find_conjugator(t1.members[0], t2.members[0])
    assert g is not None, "equal labels must be conjugate"
    if all(mat_mul(g, a_k) == mat_mul(b_k, g) for a_k, b_k in zip(t1.members, t2.members)):
        return SimConjVerdict(equivalent=True, witness=g)
    return SimConjVerdict(
        equivalent=False, certificate="no exponent-matching generator pair"
    )


def eighteen_commuting_reps() -> dict[ClassLabel, Mat3]:
    """One commuting representative per label: minimal powers of the fixed
    order-57 representative of class [0,4].

    Its 54 non-scalar powers split as 18 labels times 3 powers each.
    """
    base = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]
    reps: dict[ClassLabel, Mat3] = {}
    for k, p in enumerate(mat_powers(base, 56), 1):
        if k % 19 == 0:  # scalar powers 4I (k=19) and 2I (k=38)
            continue
        label = class_label(p)
        reps.setdefault(label, p)
    if len(reps) != 18:
        raise IncompleteCover(f"powers covered {len(reps)} labels, expected 18")
    return reps


def parse_tuple_file(text: str) -> tuple[Mat3, ...]:
    """One matrix per nonblank line, row-semicolon format."""
    rows = [line for line in text.splitlines() if line.strip()]
    return tuple(parse_matrix(line) for line in rows)
