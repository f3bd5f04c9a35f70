"""Acceptance gate: every verification check at full scale, zero tolerance.

Each criterion prints one pass/fail line (visible with -v via the test id
and with -s via the explicit line below).
"""

import itertools
import re
import time

import pytest

from sl3f7 import scan, verify


@pytest.mark.parametrize(
    "check", verify.CHECKS, ids=[f"{c.number:02d}-{c.name}" for c in verify.CHECKS]
)
def test_acceptance_criterion(check):
    ok, detail = check.fn(True)
    status = "PASS" if ok else "FAIL"
    print(f"criterion {check.number:2d} {check.name}: {status}  ({detail})")
    assert ok, f"criterion {check.number} {check.name}: {detail}"


def test_budgets_read_a_monotonic_clock(monkeypatch, capsys):
    # a wall clock that steps an hour forward on every reading neither
    # fails the budget gates of checks 1, 7 and 15 nor shows on stderr
    start, steps = time.time(), itertools.count()
    monkeypatch.setattr(time, "time", lambda: start + 3600.0 * next(steps))
    for check, full in ((verify.check_group_order, False), (verify.check_conjugacy, False),
                        (verify.check_subgroups, True)):
        ok, detail = check(full)
        assert ok and "within" in detail and "OVER" not in detail, detail
    assert verify.run_suite("quick", only="group-order")
    # check 1 walks the whole stream once
    seconds = re.fullmatch(r"\s+group-order: ([0-9.]+)s, walks 1 over 1\.00 \|G\|\n",
                           capsys.readouterr().err)
    assert seconds and float(seconds.group(1)) < 60


@pytest.mark.parametrize("bin_, step", [(0, 1), (48, -1)])
def test_group_order_fails_on_a_histogram_off_by_one(monkeypatch, bin_, step):
    # the census and the order counts read _group_histogram, which counts no
    # element, so check 1 holds its 49 bins to the counted order
    ok, detail = verify.check_group_order(False)
    assert ok
    wrong = scan._group_histogram().copy()
    wrong[bin_] += step
    monkeypatch.setattr(scan, "_group_histogram", lambda: wrong)
    assert verify.check_group_order(False) == (False, detail)
