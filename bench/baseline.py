"""Reproduce the baseline table of the ROADMAP's re-anchor from fixed cases.

    python3 bench/baseline.py

Times each case with time.perf_counter (small cases: median of 5 batches)
and prints a markdown table next to the ROADMAP's numbers.  The modealg row
runs the bodies of the three slow Tier-1 mode-algebra tests.  NOTES.md
records one run of it and where this machine agrees and differs.
"""
from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction

from run import REFERENCE_S, load_package, reference_loop

load_package()

from ghostcft import correlators as co  # noqa: E402
from ghostcft import kzbpz as kz  # noqa: E402
from ghostcft import modealg as ma  # noqa: E402
from ghostcft import specfun as sf  # noqa: E402


def per_call_us(fn, calls=2000, batches=5):
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def once_s(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main():
    half = Fraction(1, 2)
    rows = []
    for label, z, roadmap in (("hyp2f1 at z = 0.5", 0.5, "68 us"),
                              ("hyp2f1 at z = 0.9", 0.9, "~180 us"),
                              ("hyp2f1 at z = 0.5+0.8i", 0.5 + 0.8j, "537 us")):
        rows.append((label, roadmap, f"{per_call_us(lambda: sf.hyp2f1(0.3, 0.7, 1.9, z)):.0f} us"))

    j1, j2 = 0.35, 0.8
    j4 = 1.5 - j1 - j2
    block = co.blocks_l2_blocksums(j1, j2, j4)[0]
    built, out = once_s(lambda: kz.recursion_iterate(block, (j1, j2, 0.5, j4), 2, 5))
    value, _ = once_s(lambda: out.value(0.33))
    rows.append((f"numeric l=2, k=5: build ({len(out.terms)} terms)", "16 807 terms",
                 f"{built:.2f} s"))
    rows.append(("numeric l=2, k=5: one .value()", "1.17 s", f"{value:.2f} s"))

    j1, j2 = Fraction(3, 10), Fraction(2, 5)
    j4 = 3 - j1 - j2 - half
    built, out = once_s(lambda: kz.recursion_iterate(
        co.block_l3_powersum(j1, j2, j4), (j1, j2, half, j4), 3, 40))
    canon, small = once_s(out.canonical)
    rows.append((f"exact l=3, k=40 ({len(out.terms)} raw terms)", "6.0 s", f"{built:.2f} s"))
    rows.append((f"exact l=3, k=40: canonical() ({len(small.terms)} terms)", "1.0 s",
                 f"{canon:.2f} s"))

    basis = ma.basis_states(Fraction(1, 3), 0, max_level=6, max_factors=2)
    window = range(-3, 4)
    probe = basis[:6]

    def criterion_1():
        ok = ma.chi_null_check().ok
        ok &= ma.check_jj_commutators(probe, window)
        ok &= ma.check_lj_commutators(probe, window)
        ok &= ma.check_virasoro(probe[:4], Fraction(2), ma.act_virasoro, window)
        ok &= ma.check_virasoro(probe[:3], Fraction(-2), ma.act_singlet, window)
        ok &= ma.check_singlet_commutes_with_current(probe[:3], window)
        return ok

    level = basis[:8]
    cases = (("test_criterion_1_mode_algebra", "11.6 s", criterion_1),
             ("test_singlet_central_charge_minus_two", "8.4 s",
              lambda: ma.check_virasoro(level[:4], Fraction(-2), ma.act_singlet, window)),
             ("test_singlet_commutes_with_current", "7.0 s",
              lambda: ma.check_singlet_commutes_with_current(level[:4], window)))
    total = 0.0
    for name, roadmap, fn in cases:
        took, ok = once_s(fn)
        assert ok, name
        total += took
        rows.append((f"modealg: {name}", roadmap, f"{took:.1f} s"))
    rows.append(("modealg: the three tests together", "27.0 s of 37.1 s Tier-1",
                 f"{total:.1f} s"))

    print(f"Python {sys.version.split()[0]}; reference loop "
          f"{statistics.median(reference_loop() for _ in range(9)) * 1e3:.2f} ms "
          f"(target {REFERENCE_S * 1e3:.1f} ms)\n")
    print("| case | ROADMAP | this run |")
    print("|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main()
