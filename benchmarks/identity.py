"""Check that two checkouts write byte-identical certificates and exports.

    python benchmarks/identity.py --parent ../parent --change .

Each checkout runs one fixed job list in its own child process, with
PYTHONPATH=<checkout>/src, so each side runs its own code:

- every job of its `examples`, `small-n` and `extended` suites;
- A5 at n = 8 and 9, PSL27 at n = 5, A7 at n = 5, 6 and 7, A11 at n = 5;
- perfbench's job files at seeds 0, 1 and 3, written by
  `perfbench/jobs.py write_job_files` of this script's own checkout.

An n = 4 job runs to the `full` phase and exports both formats; every other
job runs to `decompose`. The script prints, per job, the sha256 of
`Certificate.core_bytes()` and of each export file on each side, and exits
1 if any of them differ or a job is missing on one side. A job that a side
rejects (an `ArccoverError`) is compared by its error; any other exception
stops that side's child, and the script with it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMATS = ("edge-list", "adjacency-text")
SUITES = ("examples", "small-n", "extended")
PERFBENCH_SEEDS = (0, 1, 3)

A5 = ("A5", "(1,2)(3,4)", "(1,2,3,4,5)")
PSL27 = ("PSL27", "(1,8)(2,7)(3,4)(5,6)", "(1,2,3,4,5,6,7)")
A7 = ("A7", "(1,2)(3,4)", "(1,2,3,4,5,6,7)")
A11 = ("A11", "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)")
PAIRS = [(A5, 8), (A5, 9), (PSL27, 5), (A7, 5), (A7, 6), (A7, 7), (A11, 5)]


def pair_job(pair: tuple[str, str, str], n: int) -> dict:
    group, x, y = pair
    return {"id": f"{group}-n{n}", "spec": {"n": n, "group": group, "x": x, "y": y}}


def job_list(work_dir: Path) -> list[dict]:
    """The fixed job list: suites by name, which each side expands from its
    own suites, then pairs and perfbench job files, as JSON-able entries."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from jobs import WORKLOADS, write_job_files

    jobs: list[dict] = [{"suite": name} for name in SUITES]
    jobs += [pair_job(pair, n) for pair, n in PAIRS]
    for seed in PERFBENCH_SEEDS:
        for workload in WORKLOADS:
            seed_dir = work_dir / f"perfbench-s{seed}-{workload}"
            seed_dir.mkdir(parents=True)
            for job in write_job_files(workload, seed, seed_dir):
                jobs.append({"id": f"perfbench-s{seed}/{job.label}", "file": str(job.job_file)})
    return jobs


# ---------------------------------------------------------------------------
# the child: runs the jobs with the checkout's own code
# ---------------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(spec, out_dir: Path) -> dict:
    from dataclasses import replace

    from arccover.errors import ArccoverError
    from arccover.report import run_job

    if spec.n == 4:
        spec = replace(spec, out_dir=str(out_dir), formats=FORMATS)
        phase = "full"
    else:
        spec = replace(spec, out_dir=None, formats=())
        phase = "decompose"
    try:
        cert = run_job(spec, phase)
    except ArccoverError as exc:  # a rejection is compared like any other output
        return {"core": f"{type(exc).__name__}: {exc}"}
    items = {"core": _sha(cert.core_bytes())}
    if out_dir.is_dir():
        items.update((path.name, _sha(path.read_bytes())) for path in sorted(out_dir.iterdir()))
    return items


def child() -> None:
    """Read {"jobs", "out"} on stdin; print {"arccover", "jobs": {id: items}}."""
    import arccover
    from arccover.report import JobSpec
    from arccover.suite import _suite_specs

    request = json.load(sys.stdin)
    out = Path(request["out"])
    results: dict[str, dict] = {}
    for entry in request["jobs"]:
        if "suite" in entry:
            specs = [(f"{entry['suite']}/{s.label}", s) for s in _suite_specs(entry["suite"])]
        elif "file" in entry:
            specs = [(entry["id"], JobSpec.from_file(entry["file"]))]
        else:
            specs = [(entry["id"], JobSpec(**entry["spec"]))]
        for job_id, spec in specs:
            results[job_id] = _run(spec, out / f"job-{len(results)}")
    print(json.dumps({"arccover": arccover.__file__, "jobs": results}))


# ---------------------------------------------------------------------------
# the driver: one child per checkout, then the comparison
# ---------------------------------------------------------------------------

CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import identity; identity.child()"


def side(checkout: Path, jobs: list[dict]) -> dict:
    """The child's result for one checkout; exits with the child's stderr
    if it fails."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, str(ROOT / "benchmarks")],
            input=json.dumps({"jobs": jobs, "out": out}),
            env=env, cwd=out, capture_output=True, text=True, check=False,
        )
    if done.returncode:
        sys.exit(f"{checkout}: the child exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout)


def compare(parent: dict, change: dict) -> list[tuple[str, str, str, str, bool]]:
    """(job, item, parent sha, change sha, same) for every job and item on
    either side, in the parent's order; "-" marks an item one side lacks."""
    rows = []
    for job_id in [*parent, *(j for j in change if j not in parent)]:
        before, after = parent.get(job_id, {}), change.get(job_id, {})
        for item in [*before, *(i for i in after if i not in before)]:
            a, b = before.get(item, "-"), after.get(item, "-")
            rows.append((job_id, item, a, b, a == b != "-"))
    return rows


def check(parent: Path, change: Path, jobs: list[dict]) -> int:
    """Run `jobs` on both checkouts, print the comparison, return the exit code."""
    results = {name: side(path, jobs) for name, path in (("parent", parent), ("change", change))}
    for name, result in results.items():
        print(f"{name}: {result['arccover']}")
    rows = compare(results["parent"]["jobs"], results["change"]["jobs"])
    for job_id, item, a, b, same in rows:
        print(f"{'same' if same else 'DIFF'}  {job_id}  {item}  parent {a}  change {b}")
    differ = sum(not same for *_, same in rows)
    jobs_run = len({row[0] for row in rows})
    print(f"{jobs_run} jobs, {len(rows)} items, {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        return check(args.parent.resolve(), args.change.resolve(), job_list(Path(work)))


if __name__ == "__main__":
    sys.exit(main())
