"""Every route of a check can make it fail.

A check that compares two routes to a claim guards it only if a fault in
either route shows.  Each row patches one route that a check of verify reads,
keeping its type (a count one off, a code dropped from a set, a coset factor
lost), and requires the check's line of the full suite to read FAIL.  Every
row here passed at the commit before its check was mended: check 2 read only
the 18 rootless bins of the histogram, check 11 walked the pairs on its own,
and check 12 compared only the three booleans that a factor or a shift common
to all power counts keeps.
"""

import numpy as np
import pytest

from sl3f7 import scan, verify
from sl3f7.matrix3 import encode, mat_powers


def _bin_one_high(b):
    def perturb(histogram):
        def wrong():
            counts = histogram().copy()
            counts[b] += 1
            return counts
        return wrong
    return perturb


def _one_code_short(orbit_oracle):
    # the least code of the orbit that is no power of P, so the powers found
    # in it, and the 171 a floor division would give, stay as they are
    def wrong(m):
        orbit = orbit_oracle(m)
        return orbit - {min(orbit - {encode(pk) for pk in mat_powers(m, 19)})}
    return wrong


def _counts_one_high(*exponents):
    def perturb(power_counts):
        def wrong(asked):
            return {k: n + (k in exponents) for k, n in power_counts(asked).items()}
        return wrong
    return perturb


def _coset_factor_lost(power_chunk):
    # the chunk counts each g^k = I with 3 | k once, not for its three cosets
    def wrong(g, exponents):
        return power_chunk(g, exponents) // np.array([3 if k % 3 == 0 else 1 for k in exponents])
    return wrong


# the 31 bins whose cubic has a root in F7, which the census does not read
ROWS = {
    **{f"census-bin-{b}": ("eigenfree-census", "_group_histogram", _bin_one_high(b))
       for b in np.flatnonzero(~scan._rootless_bins()).tolist()},
    "normalizer-orbit-one-code-short": ("normalizer", "orbit_oracle", _one_code_short),
    "absence-count-of-1-one-high": ("order-absence", "_power_counts", _counts_one_high(1)),
    "absence-every-count-one-high": ("order-absence", "_power_counts",
                                     _counts_one_high(1, 3, 9, 27)),
    "absence-coset-factor-lost": ("order-absence", "_power_chunk", _coset_factor_lost),
}


@pytest.mark.parametrize("check, route, perturb", ROWS.values(), ids=ROWS.keys())
def test_a_perturbed_route_fails_its_check(check, route, perturb, monkeypatch, capsys):
    monkeypatch.setattr(scan, route, perturb(getattr(scan, route)))
    assert not verify.run_suite("full", only=check)
    line = capsys.readouterr().out.splitlines()[0]
    assert line[len("[nn/16] "):].split()[:2] == [check, "FAIL"], line
