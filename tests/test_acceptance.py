"""Acceptance gate: the eight certification criteria, one test each.

Each test prints a single PASS/FAIL line (bypassing capture) so a full
run reads as a checklist.  Tolerances are fixed here, not configurable;
they are part of the contract being certified.

Criterion 1 certifies the per-rate one-bit gap: every outer vertex
lowered by one bit in every coordinate, with no clip at zero, meets
every inner half-space, so each inner row is within one bit per unit of
rate weight of the outer region.  The clipped one-bit shift, which the
sweep's verdicts use, fails on part of the same data; a companion test
checks that those failures come from the clip at zero.
"""

import math
import subprocess
import sys

import pytest

from icci.bounds import gap_deltas, inner_coeffs, outer_coeffs
from icci.channel import ChannelGains, GdofExponents
from icci.gaussian_mi import mi_discrepancy, successive_decode_chain
from icci.gdof import (
    dof_curve_samples,
    dof_ic,
    dof_ic_lp,
    dof_icci,
    dof_uplift,
    multiplexing_gain,
    multiplexing_targets,
)
from icci.region import BOUND_PATTERNS, build_inner, build_outer, within_bits_slack
from icci.sweep import check_channels

from conftest import seeded_channels

GAP_CHANNEL_COUNT = 10_000
GAP_SEED = 42
GAP_MAG_RANGE = (1e-3, 1e3)
MI_CHANNEL_COUNT = 1_000
MI_SEED = 7
MI_MAG_RANGE = (1e-6, 1e6)  # the whole accepted envelope, sweep.MAG_LIMIT
TOL = 1e-9


def report(capfd, number: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[criterion {number}] {label}: {verdict} ({detail})", flush=True)


@pytest.fixture(scope="module")
def channel_checks():
    return check_channels(seeded_channels(GAP_SEED, GAP_CHANNEL_COUNT, *GAP_MAG_RANGE), bits=1.0, tol=TOL)


def test_criterion_1_one_bit_gap(channel_checks, capfd):
    failures = [c for c in channel_checks if c.per_rate_gap_slack < -TOL]
    worst = min(channel_checks, key=lambda c: c.per_rate_gap_slack)
    if failures:
        detail = (
            f"{len(failures)}/{GAP_CHANNEL_COUNT} channels exceed the one-bit budget; "
            f"worst slack {worst.per_rate_gap_slack:.6f} "
            f"at index {worst.index}, channel {worst.gains.to_json()}"
        )
    else:
        detail = (
            f"all {GAP_CHANNEL_COUNT} channels within one bit; "
            f"worst slack {worst.per_rate_gap_slack:.3e} at index {worst.index}"
        )
    report(capfd, 1, "one-bit gap, per-rate shift (unclipped) on every coordinate", not failures, detail)
    assert not failures, detail


# failing channels below this index are re-certified for their offending vertex
CLIP_DIAGNOSIS_INDEX_LIMIT = 1_000


def test_criterion_1_clipped_failures_come_from_the_clip(channel_checks):
    # the clipped one-bit shift is the stricter notion: it fails on some
    # channels, and never has more slack than the per-rate shift
    clipped_failures = [c for c in channel_checks if c.gap_slack < -TOL]
    assert clipped_failures
    assert all(c.gap_slack <= c.per_rate_gap_slack for c in channel_checks)
    # where it fails, the per-rate shift holds, and the binding inner row
    # weighs at least two rates: a single-rate row cannot fail once the
    # unclipped shift passes, since clipping only lowers c . shift there
    for c in clipped_failures:
        assert c.per_rate_gap_slack >= -TOL, c.index
        assert sum(BOUND_PATTERNS[c.gap_constraint]) >= 2, c.index
    # the failures are not confined to the G' rows (rows 0 and 1)
    assert any(c.gap_constraint not in (0, 1) for c in clipped_failures)
    # the offending outer vertex has a coordinate below one bit, which the
    # clip raises back to zero and so gives back part of the shift
    worst = min(clipped_failures, key=lambda c: c.gap_slack)
    subset = [c for c in clipped_failures if c.index < CLIP_DIAGNOSIS_INDEX_LIMIT]
    for c in subset + [worst]:
        cert = within_bits_slack(build_inner(inner_coeffs(c.gains)), build_outer(outer_coeffs(c.gains)), 1.0)
        assert (cert.slack, cert.halfspace_index) == (c.gap_slack, c.gap_constraint)
        assert min(cert.vertex) < 1.0, c.index


def test_criterion_2_delta_inequalities(channel_checks, capfd):
    bad = [c.index for c in channel_checks if not c.deltas_ok]
    worked = gap_deltas(ChannelGains(1, 1, 1, 1)).g1p
    expected = math.log2(5) - math.log2(1.5)
    worked_ok = abs(worked - expected) <= TOL
    ok = not bad and worked_ok
    detail = (
        f"{GAP_CHANNEL_COUNT - len(bad)}/{GAP_CHANNEL_COUNT} channels inside the delta limits; "
        f"unit-gain primed-G delta {worked:.10f} vs {expected:.10f}"
    )
    report(capfd, 2, "coefficient delta limits", ok, detail)
    assert not bad
    assert worked_ok


def test_criterion_3_containment(channel_checks, capfd):
    worst = min(c.containment_slack for c in channel_checks)
    ok = worst >= -TOL
    report(capfd, 3, "inner region contained in outer", ok, f"worst vertex slack {worst:.3e}")
    assert ok


def test_criterion_4_dof_curves(capfd):
    samples = dof_curve_samples(0.0, 3.0, 0.01)
    assert len(samples) == 301
    lp_gap = max(abs(s.d_icci_lp - s.d_icci) for s in samples)
    ic_gap = max(abs(dof_ic_lp(s.alpha) - s.d_ic) for s in samples)
    spot_exact = dof_ic(0.6) == 0.6 and dof_icci(0.6) == 0.7
    # the uplift at 0.6 is one rounding step away from decimal 0.1 by
    # construction (curve difference); certified at the same 1e-12 window
    # the remaining spot values get
    uplift_ok = abs(dof_uplift(0.6) - 0.1) <= 1e-12
    spots = (
        abs(dof_icci(0.0) - 1.0) <= 1e-12
        and abs(dof_icci(2.0 / 3.0) - 2.0 / 3.0) <= 1e-12
        and abs(dof_icci(1.0) - 0.5) <= 1e-12
        and abs(dof_icci(3.0) - 1.5) <= 1e-12
    )
    ok = lp_gap <= TOL and ic_gap <= TOL and spot_exact and uplift_ok and spots
    detail = f"301 grid points; max LP mismatch {max(lp_gap, ic_gap):.3e}; spot values hold"
    report(capfd, 4, "per-user DoF curves vs the exact LP optimum", ok, detail)
    assert lp_gap <= TOL and ic_gap <= TOL
    assert spot_exact and uplift_ok and spots


def test_criterion_5_mi_oracle(capfd):
    worst = max(map(mi_discrepancy, seeded_channels(MI_SEED, MI_CHANNEL_COUNT, *MI_MAG_RANGE)))
    ok = worst <= TOL
    report(capfd, 5, "exact Gaussian MI oracle vs closed forms", ok,
           f"{MI_CHANNEL_COUNT} channels, max discrepancy {worst:.3e}")
    assert ok


def test_criterion_6_multiplexing_limits(capfd):
    exponent_sets = (
        GdofExponents(1, 0.6, 0.6, 1),
        GdofExponents(1, 0, 0, 1),
        GdofExponents(1, 2, 2, 1),
    )
    worst_hi = 0.0
    monotone = True
    for exponents in exponent_sets:
        targets = multiplexing_targets(exponents)
        lo = multiplexing_gain(exponents, 1e6)
        hi = multiplexing_gain(exponents, 1e12)
        dev_lo = max(abs(lo[k] - targets[k]) for k in targets)
        dev_hi = max(abs(hi[k] - targets[k]) for k in targets)
        worst_hi = max(worst_hi, dev_hi)
        monotone &= dev_hi < dev_lo
    ok = worst_hi <= 0.05 and monotone
    report(capfd, 6, "finite-power multiplexing ratios", ok,
           f"worst deviation at p=1e12 is {worst_hi:.4f}; shrinks from p=1e6: {monotone}")
    assert worst_hi <= 0.05
    assert monotone


def test_criterion_7_decode_chain(capfd):
    targets = (0.2, 0.2, 0.2, 0.4)
    stages = successive_decode_chain(1e10).stages
    devs = [abs(s.ratio - t) for s, t in zip(stages, targets)]
    ok = len(stages) == 4 and max(devs) <= 0.05
    report(capfd, 7, "layered decode chain stage ratios", ok,
           f"ratios {[round(s.ratio, 4) for s in stages]} vs {targets}")
    assert ok


def test_criterion_8_sweep_determinism(capfd):
    argv = [sys.executable, "-m", "icci", "sweep", "--seed", "42", "--samples", "100"]
    outputs = []
    codes = []
    for _ in range(3):
        proc = subprocess.run(argv, capture_output=True, timeout=300)
        outputs.append(proc.stdout)
        codes.append(proc.returncode)
    ok = outputs[0] == outputs[1] == outputs[2] and len(set(codes)) == 1
    report(capfd, 8, "sweep output byte-identical across runs", ok,
           f"{len(outputs[0])} bytes per report, exit code {codes[0]}")
    assert ok
