"""Command-line front end.

Verbs: validate (input checking only), construct (identity checks),
decompose (block structure and d), graph (coset graph construction),
quotient (full pipeline including cover quotients), suite (named job
collections with regression baselines).

Exit codes: 0 every requested check passed; 1 a check failed; 2 the job was
rejected during validation, or its output could not be written; 3 a
capacity cap blocked a requested stage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from ._version import __version__
from .errors import CapacityExceeded, ValidationError
from .groups import ENUM_CAP_DEFAULT, VERTEX_CAP_DEFAULT
from .report import EXPORT_SUFFIX, SUITE_NAMES, JobSpec, run_job

_PHASE_OF_VERB = {
    "construct": "construct",
    "decompose": "decompose",
    "graph": "graph",
    "quotient": "full",
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_REJECTED = 2
EXIT_CAPACITY = 3


def _add_job_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, help="arity of the complete graph K_n")
    sub.add_argument("--group", help="name of T in the catalog")
    sub.add_argument("--x", help="involution of T, in cycle notation")
    sub.add_argument("--y", help="odd-prime-order element of T, in cycle notation")
    sub.add_argument("--job", help="JSON job file instead of the four flags above")
    sub.add_argument("--vertex-cap", type=int, default=None,
                     help=f"largest graph to build (default {VERTEX_CAP_DEFAULT})")
    sub.add_argument("--enum-cap", type=int, default=None,
                     help="most conjugations the kernel's normal closure may form "
                          f"(default {ENUM_CAP_DEFAULT})")
    sub.add_argument("--catalog", default=None, help="extra group catalog JSON file")
    sub.add_argument("--out", default=None, help="directory for certificate and exports")
    sub.add_argument("--format", action="append", default=None,
                     choices=list(EXPORT_SUFFIX),
                     help="graph export format (repeatable)")


def _spec_from_args(args: argparse.Namespace) -> JobSpec:
    flag_values = {
        "vertex_cap": args.vertex_cap,
        "enum_cap": args.enum_cap,
        "catalog": args.catalog,
        "out_dir": args.out,
        "formats": args.format,
    }
    overrides = {k: v for k, v in flag_values.items() if v is not None}
    if args.job:
        if any(v is not None for v in (args.n, args.group, args.x, args.y)):
            raise ValidationError("pass either --job or the --n/--group/--x/--y flags")
        return replace(JobSpec.from_file(args.job), **overrides)
    missing = [
        name
        for name, v in (("--n", args.n), ("--group", args.group),
                        ("--x", args.x), ("--y", args.y))
        if v is None
    ]
    if missing:
        raise ValidationError(f"missing required flags: {', '.join(missing)}")
    return JobSpec(n=args.n, group=args.group, x=args.x, y=args.y, **overrides)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _run_validate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    job = spec.cover_job()
    problems = job.problems()
    if problems:
        _emit({"valid": False, "job": spec.echo(), "problems": problems})
        return EXIT_REJECTED
    _emit(
        {
            "valid": True,
            "job": spec.echo(),
            "group_order": job.group.order(),
            "x_order": job.x.order(),
            "y_order": job.y.order(),
        }
    )
    return EXIT_OK


def _run_pipeline(args: argparse.Namespace, verb: str) -> int:
    spec = _spec_from_args(args)
    cert = run_job(spec, phase=_PHASE_OF_VERB[verb])
    if spec.out_dir:
        out = Path(spec.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        cert.write(out / f"{spec.job_name()}.json")
    sys.stdout.write(cert.to_bytes().decode())
    sys.stderr.write(cert.summary_line() + "\n")
    if not cert.ok:
        return EXIT_CHECK_FAILED
    if cert.capacity_blocked():
        return EXIT_CAPACITY
    return EXIT_OK


def _run_suite_verb(args: argparse.Namespace) -> int:
    from .suite import run_suite

    result = run_suite(
        args.name,
        out_dir=args.out,
        catalog=args.catalog,
        parallel=args.parallel,
        baselines_path=args.baselines,
    )
    sys.stdout.write(result.summary_table())
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Argument errors are rejections like any other: `main` prints them as
    one JSON object and exits 2 (usage still goes to stderr)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arccover",
        description="2-arc-transitive covers of complete graphs: construction, "
        "decomposition, and certificates",
    )
    parser.add_argument("--version", action="version", version=f"arccover {__version__}")
    verbs = parser.add_subparsers(dest="verb", required=True)

    for verb, blurb in (
        ("validate", "check the job inputs and report the validated facts"),
        ("construct", "verify the defining identities of the construction"),
        ("decompose", "compute the block structure and d"),
        ("graph", "additionally build the coset graph (capped)"),
        ("quotient", "full pipeline including quotients down to K_n"),
    ):
        sub = verbs.add_parser(verb, help=blurb)
        _add_job_arguments(sub)

    suite = verbs.add_parser("suite", help="run a named job collection")
    suite.add_argument("name", choices=SUITE_NAMES)
    suite.add_argument("--out", default=None, help="directory for certificates")
    suite.add_argument("--catalog", default=None, help="extra group catalog JSON file")
    suite.add_argument("--parallel", action="store_true", help="run jobs in processes")
    suite.add_argument("--baselines", default=None,
                       help="regression baselines JSON (frozen on first run)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "validate":
            return _run_validate(args)
        if args.verb == "suite":
            return _run_suite_verb(args)
        return _run_pipeline(args, args.verb)
    except ValidationError as exc:
        _emit({"rejected": True, "reason": str(exc)})
        return EXIT_REJECTED
    except CapacityExceeded as exc:
        _emit({"capacity_exceeded": True, "reason": str(exc)})
        return EXIT_CAPACITY
    except OSError as exc:  # an output path that cannot be written
        _emit({"rejected": True, "reason": f"cannot write output: {exc}"})
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
