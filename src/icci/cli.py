"""Command-line front end.

Exit codes: 0 success, 1 a mathematical certification failed, 2 usage
or invalid input, 3 I/O failure.  All randomized commands are seeded
and deterministic; `sweep` additionally keeps wall-clock time out of
stdout (it goes to stderr) so equal configs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import BoundCoeffs, coeff_deltas, inner_coeffs, outer_coeffs
from .channel import ChannelGains, _nonneg_finite
from .gaussian_mi import CovarianceError, mi_discrepancy, successive_decode_chain
from .gdof import _curve_grid, _curve_passes, _write_curve_rows
from .region import MEMBERSHIP_TOL, build_inner, build_outer, region_as_dict, within_bits_slack
from .sweep import SweepConfig, _sampled_blocks, run_gap_sweep

__all__ = ["build_parser", "dispatch", "main"]


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m11", type=float, help="direct gain into receiver 1")
    parser.add_argument("--m12", type=float, help="cross gain from transmitter 2 into receiver 1")
    parser.add_argument("--m21", type=float, help="cross gain from transmitter 1 into receiver 2")
    parser.add_argument("--m22", type=float, help="direct gain into receiver 2")
    parser.add_argument(
        "--channel",
        metavar="PATH",
        help="JSON file with keys m11, m12, m21, m22 ('-' reads stdin); overrides the flags",
    )


def _gains_from_args(args: argparse.Namespace) -> ChannelGains:
    if args.channel:
        if args.channel == "-":
            text = sys.stdin.read()
        else:
            with open(args.channel, "r", encoding="utf-8") as handle:
                text = handle.read()
        return ChannelGains.from_json(text)
    flags = (args.m11, args.m12, args.m21, args.m22)
    if any(value is None for value in flags):
        raise ValueError("need all of --m11 --m12 --m21 --m22, or --channel")
    return ChannelGains(*flags)


def _coeff_line(name: str, coeffs: BoundCoeffs) -> str:
    body = " ".join(f"{key}={value:.6f}" for key, value in coeffs.as_dict().items())
    return f"{name}: {body}"


def _cmd_bounds(args: argparse.Namespace) -> int:
    gains = _gains_from_args(args)
    inner = inner_coeffs(gains)
    outer = outer_coeffs(gains)
    deltas = coeff_deltas(inner, outer)
    if args.json:
        print(json.dumps({
            "channel": gains.as_dict(),
            "inner": {**inner.as_dict(), "side": inner.side},
            "outer": {**outer.as_dict(), "side": outer.side},
            "deltas": deltas.as_dict(),
        }))
    else:
        print(f"channel: {gains.to_json()}")
        print(_coeff_line("inner", inner))
        print(_coeff_line("outer", outer))
        print(_coeff_line("delta", deltas))
    return 0


def _cmd_region(args: argparse.Namespace) -> int:
    gains = _gains_from_args(args)
    if args.side == "inner":
        region = build_inner(inner_coeffs(gains))
    else:
        region = build_outer(outer_coeffs(gains))
    print(json.dumps(region_as_dict(region)))
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    gains = _gains_from_args(args)
    inner = build_inner(inner_coeffs(gains))
    outer = build_outer(outer_coeffs(gains))
    cert = within_bits_slack(cover=inner, target=outer, bits=args.bits)
    ok = cert.slack >= -_nonneg_finite("tol", args.tol)
    if args.json:
        print(json.dumps({
            "channel": gains.as_dict(),
            "bits": args.bits,
            "tol": args.tol,
            "pass": ok,
            "worst_slack": cert.slack,
            "constraint": cert.halfspace_index,
        }))
    else:
        verdict = "pass" if ok else "FAIL"
        print(
            f"channel={gains.to_json()} bits={args.bits!r} {verdict} "
            f"worst_slack={cert.slack!r} constraint={cert.halfspace_index}"
        )
    return 0 if ok else 1


def _cmd_gdof_curve(args: argparse.Namespace) -> int:
    # the grid is checked here, so a bad grid exits before --out is opened;
    # the rows are computed pass by pass as they are written
    passes = _curve_passes(*_curve_grid(args.alpha_min, args.alpha_max, args.step))
    if args.out == "-":
        _write_curve_rows(sys.stdout, passes)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            _write_curve_rows(handle, passes)
    return 0


def _cmd_verify_mi(args: argparse.Namespace) -> int:
    # the sampling arguments follow the sweep's rules, and so does the draw
    config = SweepConfig(samples=args.samples, seed=args.seed, mag_min=args.mag_min, mag_max=args.mag_max, tol=args.tol)
    worst = 0.0
    worst_index = 0
    try:
        for block, rows in _sampled_blocks(config):
            for index, row in zip(block, rows.tolist()):
                err = mi_discrepancy(ChannelGains(*row))
                if err > worst:
                    worst, worst_index = err, index
    except CovarianceError as exc:
        print(f"verify-mi: covariance guard tripped at sample {index}: {exc}", file=sys.stderr)
        return 1
    ok = worst <= args.tol
    if args.json:
        print(json.dumps({
            "samples": args.samples,
            "seed": args.seed,
            "mag_min": args.mag_min,
            "mag_max": args.mag_max,
            "max_abs_error": worst,
            "worst_index": worst_index,
            "tol": args.tol,
            "pass": ok,
        }))
    else:
        verdict = "pass" if ok else "FAIL"
        print(
            f"verify-mi samples={args.samples} seed={args.seed} "
            f"max_abs_error={worst!r} tol={args.tol!r} {verdict}"
        )
    return 0 if ok else 1


def _cmd_example(args: argparse.Namespace) -> int:
    report = successive_decode_chain(args.p, include_common=not args.no_common)
    if args.json:
        print(json.dumps(report.as_dict()))
        return 0
    common = "no" if args.no_common else "yes"
    print(f"layered decode chain: p={report.p:g} cross exponent 0.6 common={common}")
    print(f"{'stage':<14}{'sinr':>14}{'rate':>12}{'ratio':>10}")
    for stage in report.stages:
        print(f"{stage.label:<14}{stage.sinr:>14.4e}{stage.rate:>12.4f}{stage.ratio:>10.5f}")
    print(
        f"individual_ratio={report.individual_ratio:.5f} "
        f"common_ratio={report.common_ratio:.5f} "
        f"per_user_ratio={report.per_user_ratio:.5f}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        samples=args.samples,
        seed=args.seed,
        mag_min=args.mag_min,
        mag_max=args.mag_max,
        bits=args.bits,
        tol=args.tol,
    )
    started = time.perf_counter()
    report = run_gap_sweep(config)
    elapsed = time.perf_counter() - started
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        print(
            f"sweep: samples={config.samples} seed={config.seed} "
            f"mag_min={config.mag_min!r} mag_max={config.mag_max!r} "
            f"bits={config.bits!r} tol={config.tol!r}"
        )
        print(f"pass={report.pass_count} fail={report.fail_count}")
        print(
            f"worst: index={report.worst_index} slack={report.worst_slack!r} "
            f"constraint={report.worst_constraint} channel={report.worst_gains.to_json()}"
        )
        if report.failed_indices:
            print("failed_indices=" + ",".join(str(i) for i in report.failed_indices))
    print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return 0 if report.fail_count == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icci",
        description=(
            "Capacity bound families, one-bit gap certification, and "
            "degrees-of-freedom curves for the two-user Gaussian "
            "interference channel with a common message."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="inner/outer coefficient families and their deltas")
    _add_channel_args(p_bounds)
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_region = sub.add_parser("region", help="emit one rate region (half-spaces and vertices) as JSON")
    _add_channel_args(p_region)
    p_region.add_argument("--side", choices=("inner", "outer"), required=True)
    p_region.set_defaults(func=_cmd_region)

    p_gap = sub.add_parser("gap", help="certify the coordinatewise bit gap for one channel")
    _add_channel_args(p_gap)
    p_gap.add_argument("--bits", type=float, default=1.0)
    p_gap.add_argument("--tol", type=float, default=MEMBERSHIP_TOL)
    p_gap.add_argument("--json", action="store_true")
    p_gap.set_defaults(func=_cmd_gap)

    p_curve = sub.add_parser("gdof-curve", help="write the symmetric per-user DoF curve as CSV")
    p_curve.add_argument("--alpha-min", type=float, default=0.0)
    p_curve.add_argument("--alpha-max", type=float, default=3.0)
    p_curve.add_argument("--step", type=float, default=0.01)
    p_curve.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_curve.set_defaults(func=_cmd_gdof_curve)

    p_mi = sub.add_parser("verify-mi", help="compare the Gaussian MI oracle against the closed forms")
    p_mi.add_argument("--samples", type=int, default=1000)
    p_mi.add_argument("--seed", type=int, default=0)
    p_mi.add_argument("--mag-min", type=float, default=1e-2)
    p_mi.add_argument("--mag-max", type=float, default=1e2)
    p_mi.add_argument("--tol", type=float, default=1e-9)
    p_mi.add_argument("--json", action="store_true")
    p_mi.set_defaults(func=_cmd_verify_mi)

    p_example = sub.add_parser(
        "example-alpha06",
        help="stage rates of the layered scheme on the symmetric channel with cross exponent 0.6",
    )
    p_example.add_argument("--p", type=float, default=1e10)
    p_example.add_argument("--no-common", action="store_true", help="drop the common layer")
    p_example.add_argument("--json", action="store_true")
    p_example.set_defaults(func=_cmd_example)

    p_sweep = sub.add_parser("sweep", help="randomized certification sweep over sampled channels")
    p_sweep.add_argument("--samples", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--mag-min", type=float, default=1e-3)
    p_sweep.add_argument("--mag-max", type=float, default=1e3)
    p_sweep.add_argument("--bits", type=float, default=1.0)
    p_sweep.add_argument("--tol", type=float, default=MEMBERSHIP_TOL)
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"icci: i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"icci: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
