"""Record a before/after benchmark of two checkouts in BENCH_<tag>.json.

    python benchmarks/bench_record.py --parent ../parent --change . --tag voltage_graph

Both checkouts are measured with their own code; the workloads and the run
length are those of the change's BENCHMARK.json. The record holds:

- perfbench: the result line of `python3 perfbench/run.py --workload W
  --seed S --seconds SEC` for each workload, alternating parent and change
  runs over PAIRS seeds 0, 1, ... (even pairs run the parent first, odd
  pairs the change first), with per-metric medians, quartiles and the
  number of pairs the change wins;
- traced: one `--trace 1` result line per workload and checkout, with the
  per-module metrics;
- in_process: wall time and peak RSS (ru_maxrss) of a fresh process
  running the `extended-build` job, of one running the whole `extended`
  suite, of one running perfbench's cover-k4 job (COVER_K4, unconjugated),
  and of one per `decompose` job of DECOMPOSE, with its d and its
  `class-partition` stage time: A5 at n = 8 and 9, A11 at n = 7 and A7 at
  n = 4 to 7, the last five on the entry pool, per checkout: the medians
  of ROUNDS runs, with the runs (a job that a checkout rejects records its
  exit code and the last line of its stderr);
- layers: the median of each layer microbenchmark in the checkout's own
  `benchmarks/` (pytest-benchmark), in seconds, and its median over ROUNDS
  runs of the whole set.

The record is written after each section (each perfbench workload, the
traced runs, each in-process job and the layers) and reads
`"complete": false` until the last one is in, so a failure late in the
run keeps what was measured before it.

Every number comes from a child process, one at a time. In_process and
layers alternate the checkouts run by run (the parent first in even rounds,
the change first in odd ones), so a drift of the machine's speed reaches
both sides alike instead of reading as a change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
ROUNDS = 3

A7_PAIR = ("A7", "(1,2)(3,4)", "(1,2,3,4,5,6,7)")
DECOMPOSE = {
    "n8-decompose": (8, "A5", "(1,2)(3,4)", "(1,2,3,4,5)"),
    "n9-decompose": (9, "A5", "(1,2)(3,4)", "(1,2,3,4,5)"),
    "a11-n7-decompose": (7, "A11", "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)"),
    **{f"a7-n{n}-decompose": (n, *A7_PAIR) for n in (4, 5, 6, 7)},
}

# perfbench's cover-k4 job before its seeded conjugation: PSL(2,13) from a
# catalog file, n = 4, `quotient` with both export formats
PSL2_13 = {"degree": 14, "generators": ["(1,2,3,4,5,6,7,8,9,10,11,12,13)",
                                        "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)"]}
COVER_K4 = {"n": 4, "group": "PSL2_13", "x": "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)",
            "y": "(1,4,7,10,13,3,6,9,12,2,5,8,11)", "formats": ["edge-list", "adjacency-text"]}

IN_PROCESS = """
import json, os, resource, sys, tempfile, time
from arccover.report import JobSpec, run_job
try:
    from arccover.suite import _suite_specs, run_suite
except ImportError:  # a checkout whose suites still live in `report`
    from arccover.report import _suite_specs, run_suite
t0 = time.perf_counter()
facts = {}
if sys.argv[1] == "suite":
    ok = run_suite("extended").ok
elif sys.argv[1] == "cover-k4":
    group, fields = json.loads(sys.argv[2])
    with tempfile.TemporaryDirectory() as tmp:
        catalog = os.path.join(tmp, "catalog.json")
        with open(catalog, "w") as f:
            json.dump(group, f)
        cert = run_job(JobSpec(**{**fields, "formats": tuple(fields["formats"])},
                               catalog=catalog, out_dir=tmp))
        ok = cert.check("graph-build")["passed"]  # the centralizer is capacity-skipped
        facts["vertices"] = cert.check("graph-build")["computed"]["vertices"]
elif sys.argv[1] == "decompose":
    n, group, x, y = json.loads(sys.argv[2])
    cert = run_job(JobSpec(n=n, group=group, x=x, y=y), "decompose")
    ok = cert.ok
    facts["d"] = cert.check("block-structure")["computed"]["d"]
    facts["class_partition_s"] = cert.payload["timings"]["class-partition"]
else:
    spec = [s for s in _suite_specs("extended") if s.label == "extended-build"][0]
    ok = run_job(spec).ok
print(json.dumps({"wall_s": round(time.perf_counter() - t0, 3), "ok": ok,
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  **facts}))
"""


def _env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def perfbench(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    return _last_json(out.stdout)


def in_process(checkout: Path, what: str) -> dict:
    if what in DECOMPOSE:
        args = ["decompose", json.dumps(DECOMPOSE[what])]
    elif what == "cover-k4":
        args = [what, json.dumps([{"PSL2_13": PSL2_13}, COVER_K4])]
    else:
        args = [what]
    out = subprocess.run(
        [sys.executable, "-c", IN_PROCESS, *args],
        cwd=checkout, env=_env(checkout), capture_output=True, text=True, check=False,
    )
    if out.returncode:  # a job the checkout rejects, such as one past its MATERIALIZE_LIMIT
        return {"ok": False, "exit": out.returncode, "error": out.stderr.strip().splitlines()[-1]}
    return _last_json(out.stdout)


def layers(checkout: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layers.json"
        subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks", "--benchmark-only", "-q",
             "-p", "no:cacheprovider", f"--benchmark-json={path}"],
            cwd=checkout, env=_env(checkout), capture_output=True, check=True,
        )
        data = json.loads(path.read_text())
    return {b["name"]: round(b["stats"]["median"], 7) for b in data["benchmarks"]}


def alternate(sides: dict, measure) -> dict:
    """Per side, the results of `measure(checkout)` over ROUNDS rounds that
    take the sides in turns, the first side alternating by round."""
    runs: dict = {side: [] for side in sides}
    for r in range(ROUNDS):
        for side in list(sides)[:: 1 if r % 2 == 0 else -1]:
            runs[side].append(measure(sides[side]))
    return runs


def medians(runs: list[dict]) -> dict:
    """Per key of the runs' results: the median of a number, else the value
    of the first run (a pass flag is all the runs')."""
    out = {}
    for key, first in runs[0].items():
        values = [run[key] for run in runs]
        if isinstance(first, bool):
            out[key] = all(values)
        elif isinstance(first, (int, float)):
            out[key] = statistics.median(values)
        else:
            out[key] = first
    return out


def summarize(pairs: list[dict]) -> dict:
    """Medians, quartiles and change wins per end-to-end metric."""
    out = {}
    for metric in pairs[0]["parent"]["metrics"]:
        before = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        after = [p["change"]["metrics"][metric]["value"] for p in pairs]
        q1, _, q3 = statistics.quantiles(before, n=4)
        out[metric] = {
            "parent_median": round(statistics.median(before), 4),
            "change_median": round(statistics.median(after), 4),
            "parent_iqr": round(q3 - q1, 4),
            "change_lower_in": sum(a < b for a, b in zip(after, before)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    out = sides["change"] / f"BENCH_{args.tag}.json"
    record: dict = {
        "tag": args.tag,
        "complete": False,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "seconds": seconds,
        "perfbench": {},
    }

    def save() -> None:
        out.write_text(json.dumps(record, indent=2) + "\n")

    for workload in workloads:
        pairs = []
        for seed in range(PAIRS):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = perfbench(sides[side], workload, seed, seconds)
            pairs.append(pair)
            print(workload, seed, {s: pair[s]["metrics"] for s in order}, file=sys.stderr)
        record["perfbench"][workload] = {"summary": summarize(pairs), "runs": pairs}
        save()
    record["traced"] = {
        side: {w: perfbench(path, w, 0, seconds, trace=1) for w in workloads}
        for side, path in sides.items()
    }
    save()
    record["in_process"] = {side: {} for side in sides}
    for what in ("extended-build", "suite", "cover-k4", *DECOMPOSE):
        runs = alternate(sides, lambda path: in_process(path, what))
        for side in sides:
            record["in_process"][side][what] = {**medians(runs[side]), "runs": runs[side]}
        save()
    runs = alternate(sides, layers)
    record["layers_median_s"] = {side: medians(runs[side]) for side in sides}
    record["complete"] = True
    save()
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
