"""Command-line surface: verify / scan / hilbert / chars.

Exit codes: 0 success, 1 at least one failing check, 2 usage or config
error.  JSON reports are deterministic apart from the elapsed_ms sidecar
field and are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import stat
import sys

from .checks import PASS, FAIL, CheckReport, RunConfig, SUITES, exit_code, run_suite
from .ffscan import census_csv, scan_strata
from .hilbert import abelian_surface_profile, check_packable, graded_hilbert
from .surface9 import j_family

USAGE_ERROR = 2

_STATUS_ORDER = {FAIL: 0, PASS: 1}


def render_report(reports: list[CheckReport], fmt: str) -> str:
    if fmt == "json":
        payload = [
            {
                "check_id": r.check_id,
                "status": r.status,
                "details": r.details,
                "elapsed_ms": r.elapsed_ms,
            }
            for r in sorted(reports, key=lambda r: r.check_id)
        ]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    width = max((len(r.check_id) for r in reports), default=0)
    ordered = sorted(reports, key=lambda r: (_STATUS_ORDER[r.status], r.check_id))
    for r in ordered:
        lines.append(f"{r.check_id.ljust(width)}  {r.status.upper():<4}  {r.elapsed_ms:>7} ms")
    passed = sum(1 for r in reports if r.status == PASS)
    failed = sum(1 for r in reports if r.status == FAIL)
    lines.append(f"{passed} passed, {failed} failed")
    return "\n".join(lines) + "\n"


def write_atomic(path: str, content: str) -> None:
    """Write through a new file in the same directory and one os.replace.
    A new file gets mode 0o666 less the umask, as open(path, "w") creates
    one, and a replaced file keeps its mode, as open(path, "w") keeps it;
    O_EXCL refuses a temporary name that is already taken."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".report-{os.getpid()}-{os.urandom(6).hex()}")
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_output_dir(path: str) -> None:
    """Refuse an output path that names a directory or whose directory does
    not exist, before any work."""
    if os.path.isdir(path):
        raise ValueError(f"{path} is a directory, not a file")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"{path}: directory {directory} does not exist")


def load_config_file(path: str) -> dict:
    """Plain key=value lines; '#' starts a comment; a key may occur once."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            values[key] = value.strip()
    return values


def build_config(path: str | None) -> RunConfig:
    """The RunConfig of a config file: its keys are RunConfig's fields, a
    tuple field is a comma-separated int list and every other field an int."""
    updates = {}
    if path:
        defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        for key, value in load_config_file(path).items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            try:
                if isinstance(defaults[key], tuple):
                    updates[key] = tuple(int(x) for x in value.split(",") if x.strip())
                else:
                    updates[key] = int(value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    config = RunConfig(**updates)
    config.validate()
    return config


def cmd_verify(args) -> int:
    try:
        config = build_config(args.config)
        if args.report:
            check_output_dir(args.report)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    reports = run_suite(args.suite, config)
    rendered = render_report(reports, args.format)
    if args.report:
        write_atomic(args.report, rendered)
        summary = render_report(reports, "text").strip().splitlines()[-1]
        print(f"wrote {args.report}: {summary}")
    else:
        sys.stdout.write(rendered)
    return exit_code(reports)


def cmd_scan(args) -> int:
    try:
        if args.csv:
            check_output_dir(args.csv)
        census = scan_strata(args.d, args.prime)
    except ValueError as exc:
        print(f"scan error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    csv_text = census_csv([census])
    if args.csv:
        write_atomic(args.csv, csv_text)
        print(f"wrote {args.csv}")
    sys.stdout.write(csv_text)
    print(f"minimal stratum: rank {census.min_rank} with {len(census.min_rank_points)} points")
    return 0


def cmd_hilbert(args) -> int:
    try:
        if args.max_deg < 0:
            raise ValueError(f"--max-deg must be nonnegative, got {args.max_deg}")
        check_packable(9, args.max_deg)
        for flag, value in (("--lambda", args.lam), ("--mu", args.mu)):
            # the Macaulay matrices hold the coefficients lambda, -mu in int64
            if abs(value) >= 2 ** 63:
                raise ValueError(f"{flag} {value} is too large: |{flag[2:]}| must be below 2^63")
        family = j_family(args.lam, args.mu)
    except ValueError as exc:
        print(f"hilbert error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    profile = graded_hilbert(family.generators(), 9, args.max_deg)
    target = abelian_surface_profile(args.max_deg)
    print(f"J({args.lam}:{args.mu}) Hilbert function, t = 0..{args.max_deg}")
    for t, (value, goal) in enumerate(zip(profile, target)):
        marker = "" if value == goal else "  (deviates from 9t^2)"
        print(f"  t={t}: {value}{marker}")
    return 0


def cmd_chars(args) -> int:
    from .chartab import multiplicity_names, sym_power_decomposition

    for source in (3, 2):
        for k in (2, 3):
            mults = sym_power_decomposition(source, k)
            print(f"sym^{k}(chi{source}) = {multiplicity_names(mults)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heisencheck",
        description="Exact verification suite for Heisenberg-invariant surface models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--report", help="write the report to this path")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.add_argument("--config", help="key=value config file")
    p_verify.set_defaults(fn=cmd_verify)

    p_scan = sub.add_parser("scan", help="rank-stratum census over a prime field")
    p_scan.add_argument("--d", type=int, required=True, choices=(9, 11))
    p_scan.add_argument("--prime", type=int, required=True)
    p_scan.add_argument("--csv", help="also write the census as CSV")
    p_scan.set_defaults(fn=cmd_scan)

    p_hilbert = sub.add_parser("hilbert", help="Hilbert function of one family member")
    p_hilbert.add_argument("--lambda", dest="lam", type=int, required=True)
    p_hilbert.add_argument("--mu", type=int, required=True)
    p_hilbert.add_argument("--max-deg", type=int, default=5)
    p_hilbert.set_defaults(fn=cmd_hilbert)

    p_chars = sub.add_parser("chars", help="symmetric-power character decompositions")
    p_chars.set_defaults(fn=cmd_chars)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
