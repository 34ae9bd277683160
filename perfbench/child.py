"""Child processes run.py spawns, one at a time.

    python child.py trace SPANS RUN_ID ARGS...   arccover.cli.main(ARGS), traced
    python child.py setup JOB_FILE...            the set-up every job pays

`trace` times the import of arccover.cli as its own span, installs the
tracer, runs the real command line under a `cli.main` span and writes the
spans to SPANS. `setup` runs, per job file, resolve_group -> CoverJob.problems
-> build_cover_group -> CoverGroupData.h_elements, which is what each job pays
before its first certified stage, and exits 1 if a job is invalid.

run.py puts the checkout's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys


def trace(span_file: str, run_id: str, argv: list[str]) -> int:
    from spans import Tracer

    tracer = Tracer(run_id)
    idx = tracer.open("cli.import")
    import arccover.cli

    tracer.close(idx)
    tracer.install()
    code = 1
    idx = tracer.open("cli.main")
    try:
        code = arccover.cli.main(argv)
    finally:
        tracer.close(idx)
        sys.stdout.flush()
        tracer.dump(span_file)
    return code


def setup(job_files: list[str]) -> int:
    from arccover.catalog import resolve_group
    from arccover.perm import parse_cycles
    from arccover.wreath import CoverJob, build_cover_group

    for path in job_files:
        with open(path) as fh:
            spec = json.load(fh)
        group = resolve_group(spec["group"], spec.get("catalog"))
        x = parse_cycles(spec["x"], group.degree)
        y = parse_cycles(spec["y"], group.degree)
        job = CoverJob(n=spec["n"], group=group, x=x, y=y, group_name=spec["group"])
        problems = job.problems()
        if problems:
            print(f"{path}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        build_cover_group(job).h_elements()
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "trace":
        return trace(argv[1], argv[2], argv[3:])
    if len(argv) >= 2 and argv[0] == "setup":
        return setup(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
