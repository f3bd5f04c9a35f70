"""Acceptance gate: every verification check at full scale, zero tolerance.

Each criterion prints one pass/fail line (visible with -v via the test id
and with -s via the explicit line below).
"""

import itertools
import re
import time

import pytest

from sl3f7 import subgroups, verify


@pytest.mark.parametrize(
    "check", verify.CHECKS, ids=[f"{c.number:02d}-{c.name}" for c in verify.CHECKS]
)
def test_acceptance_criterion(check):
    ok, detail = check.fn(True, None)
    status = "PASS" if ok else "FAIL"
    print(f"criterion {check.number:2d} {check.name}: {status}  ({detail})")
    assert ok, f"criterion {check.number} {check.name}: {detail}"


# a closure given no thread count reads SL3F7_THREADS through default_threads;
# the stream scans run in the calling thread and read it never
def no_fallback():
    raise AssertionError("a check left a scan to pick its own thread count")


def test_every_check_hands_its_threads_to_the_scans(monkeypatch):
    monkeypatch.setattr(subgroups, "default_threads", no_fallback)
    for check in verify.CHECKS:
        ok, detail = check.fn(False, 2)
        assert ok, f"criterion {check.number} {check.name}: {detail}"


def test_full_subgroup_check_hands_its_threads_to_the_closure(monkeypatch):
    # the quick suite skips the closure, so the loop above does not reach it
    monkeypatch.setattr(subgroups, "default_threads", no_fallback)
    ok, detail = verify.check_subgroups(True, 2)
    assert ok, detail


def test_budgets_read_a_monotonic_clock(monkeypatch, capsys):
    # a wall clock that steps an hour forward on every reading neither
    # fails the budget gates of checks 1, 7 and 15 nor shows on stderr
    start, steps = time.time(), itertools.count()
    monkeypatch.setattr(time, "time", lambda: start + 3600.0 * next(steps))
    for check, full in ((verify.check_group_order, False), (verify.check_conjugacy, False),
                        (verify.check_subgroups, True)):
        ok, detail = check(full, 1)
        assert ok and "within" in detail and "OVER" not in detail, detail
    assert verify.run_suite("quick", threads=1, only="group-order")
    seconds = re.fullmatch(r"\s+group-order: ([0-9.]+)s\n", capsys.readouterr().err)
    assert seconds and float(seconds.group(1)) < 60
