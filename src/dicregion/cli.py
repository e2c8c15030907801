"""Command-line front end.

Commands:
    validate <channel.json>                     injectivity check
    region   <channel.json> <dist.json> ...     compute the aggregate region
    compare  <region_a.json> <region_b.json>    certify region equality
    plot     <region.json> --out FILE           SVG polygon (K=2) / vertex CSV (K=3)
    presets  --k {2,3}                          dump the built-in facet families

Exit codes: 0 success (valid / equal), 1 semantic negative (non-injective,
unequal, refused, unbounded), 2 usage, parse or output-file error.  The DIC_SEED
environment variable overrides the --seed flag of compare.

Every input file is read by `_load`, which turns any failure to read or parse
it into one `error: could not read <kind> file '<path>': <reason>` line.  A
command returns 0 or 1 for its answer and raises for a failure; `main` alone
turns a failure into its exit code: a package error (guard overflow, an
unbounded plot, ...) exits 1, and an unreadable input, a value the command
cannot use, or an output file that cannot be written exits 2.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import random
import sys

from . import hk_region
from .channel import _write_document, load_channel, validate_injectivity
from .entropy import build_entropy_table, load_distribution
from .errors import ChannelFormatError, DicRegionError
from .polytope import compare, is_subset, load_region, region_to_dict, save_region, vertices

__all__ = ["main"]


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be positive and below 1, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


class _UsageError(Exception):
    """An input or value the command cannot use: `main` prints it and exits 2."""


def _load(load, kind: str, path):
    """`load(path)`, with any failure to read or parse the file as a _UsageError
    (JSONDecodeError is a ValueError, as are an over-long integer and deep nesting)."""
    try:
        return load(path)
    except (OSError, ValueError, ChannelFormatError) as exc:
        raise _UsageError(f"could not read {kind} file {path!r}: {exc}") from exc


def cmd_validate(args) -> int:
    spec = _load(load_channel, "channel", args.channel)
    report = validate_injectivity(spec)
    if report.is_injective:
        print(f"injective: every receiver map is invertible given its own input (K={spec.K})")
        return 0
    print(f"NOT injective: {len(report.violations)} collision(s) found")
    for i, x, va, vb in report.violations[:10]:
        print(f"  receiver {i}, input {x}: interference tuples {va} and {vb} collide")
    if len(report.violations) > 10:
        print(f"  ... and {len(report.violations) - 10} more")
    return 1


def cmd_region(args) -> int:
    spec = _load(load_channel, "channel", args.channel)
    dist = _load(load_distribution, "distribution", args.dist)

    report = validate_injectivity(spec)
    if not report.is_injective:
        if args.force and args.method == "hk-project":
            print(
                "warning: channel is not injective; the projected rate-splitting "
                "region is still achievable but need not be the capacity region",
                file=sys.stderr,
            )
        else:
            print(
                f"refusing: channel is not injective ({len(report.violations)} "
                f"collision(s)); pass --force with --method hk-project to compute "
                f"the achievable region anyway",
                file=sys.stderr,
            )
            return 1

    try:
        table = build_entropy_table(spec, dist)
    except ValueError as exc:  # a distribution that does not fit the channel
        raise _UsageError(exc) from exc

    status = 0
    if args.method == "hk-project":
        region = hk_region.project_to_aggregate(hk_region.build_A1(spec, table), tol=args.tol)
    else:
        from . import theorem_region

        a_max = args.a_max or theorem_region.default_a_max(spec.K)
        guard = args.guard or theorem_region.DEFAULT_FACET_GUARD
        limits = dict(a_max=a_max, max_facets=guard, tol=args.tol)
        if not args.check_a_max:
            region = theorem_region.enumerate_facets(spec, table, **limits)
        else:
            region, bumped = theorem_region.enumerate_facets_bumped(spec, table, **limits)
            # Every a_max row is an a_max+1 row, so only region <= bumped can fail.
            if is_subset(region, bumped, args.tol):
                print(f"a_max check: raising {a_max} -> {a_max + 1} left the region unchanged")
            else:
                print(
                    f"warning: raising a_max from {a_max} to {a_max + 1} changed "
                    f"the region; the weight cap is too small for this channel",
                    file=sys.stderr,
                )
                status = 1

    if args.out:
        save_region(region, args.out)
        print(f"wrote {len(region.rhs)} inequalities to {args.out}")
    else:
        _write_document(region_to_dict(region), sys.stdout)
    return status


def cmd_compare(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("DIC_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise _UsageError(f"DIC_SEED must be an integer, got {env_seed!r}") from None
    a, b = (_load(load_region, "region", path) for path in (args.region_a, args.region_b))
    match compare(a, b, random.Random(seed), args.tol, args.directions):
        case None:
            print(f"equal within tol {args.tol} ({args.directions} direction spot checks)")
            return 0
        case ("dim", dim_a, dim_b):
            print(f"unequal: dimensions differ ({dim_a} vs {dim_b})")
        case ("row", side, row, value):
            name = args.region_a if side == "a" else args.region_b
            attained = "unbounded" if value is None else f"{value:.12g}"
            print(
                f"unequal: inequality {list(row.coeffs)} . R <= {row.rhs:.12g} of "
                f"{name} is violated (attains {attained})"
            )
        case ("support", direction, va, vb):
            print(f"unequal: support values differ in direction {direction}: {va} vs {vb}")
    return 1


def cmd_plot(args) -> int:
    region = _load(load_region, "region", args.region)
    if not 2 <= region.dim <= 3:
        raise _UsageError(f"plotting supports 2 <= dim <= 3, region has dim {region.dim}")
    points = vertices(region)
    if region.dim == 3:
        with open(args.out, "w", encoding="utf-8") as fh:
            rows = csv.writer(fh, lineterminator="\n")
            rows.writerow(region.labels)
            rows.writerows([f"{v:.12g}" for v in p] for p in points)
        print(f"wrote {len(points)} vertices to {args.out} (CSV; 3-D regions are not drawn)")
        return 0
    svg = _polygon_svg(points, region.labels)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote polygon through {len(points)} vertices to {args.out}")
    return 0


def cmd_presets(args) -> int:
    from .theorem_region import facet_to_dict, presets

    specs = presets(args.k)
    _write_document([facet_to_dict(fs) for fs in specs], sys.stdout)
    return 0


def _polygon_svg(points, labels, size: int = 420, margin: int = 50) -> str:
    """Polygon through the vertices, walked counterclockwise, with axes."""
    def escape(text):  # xml.sax.saxutils.escape, whose import chain is slow
        return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")

    if points:
        cx = sum(p[0] for p in points) / len(points)
        cy = sum(p[1] for p in points) / len(points)
        ordered = sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    else:
        ordered = []
    span = max([abs(v) for p in points for v in p] + [1.0])
    scale = (size - 2 * margin) / span

    def sx(v):
        return margin + v * scale

    def sy(v):
        return size - margin - v * scale

    pts = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in ordered)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{margin}" y2="{margin}" '
        f'stroke="black"/>',
        f'<text x="{size - margin + 6}" y="{size - margin + 4}" font-size="14">'
        f"{escape(labels[0])}</text>",
        f'<text x="{margin - 10}" y="{margin - 10}" font-size="14">{escape(labels[1])}</text>',
    ]
    if pts:
        lines.append(
            f'<polygon points="{pts}" fill="#9ecae1" fill-opacity="0.6" stroke="#3182bd"/>'
        )
    for p in ordered:
        lines.append(f'<circle cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="3" fill="#08519c"/>')
        lines.append(
            f'<text x="{sx(p[0]) + 5:.2f}" y="{sy(p[1]) - 5:.2f}" font-size="11">'
            f"({p[0]:.3g}, {p[1]:.3g})</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicregion",
        description="Capacity regions of symmetric injective deterministic interference channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check receiver-map injectivity")
    p.add_argument("channel", help="channel JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("region", help="compute the aggregate rate region")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("dist", help="input-distribution JSON file")
    p.add_argument(
        "--method",
        choices=["hk-project", "theorem"],
        required=True,
        help="projection of the rate-splitting region, or direct facet enumeration",
    )
    p.add_argument("--a-max", dest="a_max", type=_positive_int, default=None, help="facet weight cap")
    p.add_argument(
        "--check-a-max",
        dest="check_a_max",
        action="store_true",
        help="with --method theorem: re-enumerate at a_max+1 and report whether the region changed",
    )
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    # None: theorem_region.DEFAULT_FACET_GUARD, read only when the theorem route runs.
    p.add_argument("--guard", type=_positive_int, default=None)
    p.add_argument("--out", default=None, help="write region JSON here instead of stdout")
    p.add_argument(
        "--force",
        action="store_true",
        help="with --method hk-project: compute even for a non-injective channel",
    )
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("compare", help="certify that two region files describe the same set")
    p.add_argument("region_a")
    p.add_argument("region_b")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument(
        "--directions", type=_positive_int, default=100, help="random support-value spot checks"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", help="draw a 2-D region as SVG (3-D regions dump vertices as CSV)")
    p.add_argument("region")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("presets", help="dump the built-in facet families")
    p.add_argument("--k", type=int, choices=[2, 3], required=True)
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DicRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, OSError) as exc:  # OSError: an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
