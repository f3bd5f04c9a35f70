"""Acceptance gate: every verification check at full scale, zero tolerance.

Each criterion prints one pass/fail line (visible with -v via the test id
and with -s via the explicit line below).
"""

import pytest

from sl3f7 import scan, verify


@pytest.mark.parametrize(
    "check", verify.CHECKS, ids=[f"{c.number:02d}-{c.name}" for c in verify.CHECKS]
)
def test_acceptance_criterion(check):
    ok, detail = check.fn(True, None)
    status = "PASS" if ok else "FAIL"
    print(f"criterion {check.number:2d} {check.name}: {status}  ({detail})")
    assert ok, f"criterion {check.number} {check.name}: {detail}"


# a scan or closure given no thread count reads SL3F7_THREADS through default_threads
def no_fallback():
    raise AssertionError("a check left a scan to pick its own thread count")


def test_every_check_hands_its_threads_to_the_scans(monkeypatch):
    monkeypatch.setattr(scan, "default_threads", no_fallback)
    for check in verify.CHECKS:
        ok, detail = check.fn(False, 2)
        assert ok, f"criterion {check.number} {check.name}: {detail}"


def test_full_subgroup_check_hands_its_threads_to_the_closure(monkeypatch):
    # the quick suite skips the closure, so the loop above does not reach it
    monkeypatch.setattr(scan, "default_threads", no_fallback)
    ok, detail = verify.check_subgroups(True, 2)
    assert ok, detail
