"""Benchmark runner for arccover.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one table

Run from the root of a checkout: the program is imported from `src/`. One
benchmark process runs each job of the workload in a fresh `arccover` process,
one child at a time (a closed loop with one client), repeating the
workload's job list until S seconds have passed. Every job run goes through
the correctness gate (gate.py).

--trace 0 reports the end-to-end metrics from untraced runs:
  job_s        wall time of one repetition of the workload's job processes,
               spawn to exit, stdout captured; median over repetitions,
               rescaled to the reference speed (REFERENCE_S)
  setup_s      wall time of a fresh process doing every job's set-up
               (child.py setup); median of SETUP_SAMPLES per run, rescaled
               the same way
  peak_rss_mb  largest ru_maxrss of any job process
The raw medians, quartiles, minima and sample counts, and the reference
loop's, are printed above the result line.
Gate failures are the result line's `failed` out of `attempted`.

--trace 1 alternates untraced and traced repetitions and reports the
per-module metrics (spans.py), each the median over traced repetitions of
the per-repetition total.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 when every job run passed the gate, 1 when one
did not, and 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import spans
from gate import Gate
from jobs import WORKLOADS, Job, write_job_files

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
# On a shared 2-core VM the CPU speed drifts by 20-30% over minutes, which
# moves every wall time alike: raw run medians of one workload spread by up
# to 0.31 (IQR/median) over ten seeds. Before each child the runner times a
# fixed integer loop that runs no program code; job_s and setup_s are
# rescaled by REFERENCE_S / (this run's median loop time), i.e. to the speed
# at which the loop takes REFERENCE_S seconds, as on the baseline machine. A
# change to the program moves the rescaled times in the same proportion as
# the raw ones.
REFERENCE_ROUNDS = 1_000_000
REFERENCE_S = 0.08
CHILD_TIMEOUT_S = 120
# no new repetition starts after this many seconds, so a run ends well
# within three minutes even on a slow machine
HARD_STOP_S = 120

END_TO_END = (
    ("job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SELF_SPANS = (
    "cosetgraph.build_coset_graph",
    "cosetgraph.quotient_graph",
    "cosetgraph.graph_invariants",
    "cosetgraph.verify_connected",
    "cosetgraph.export_graph",
    "cosetgraph.centralizer_elements",
    "groups.closure",
    "groups.schreier_kernel_generators",
    "groups.conj_intersection",
    "groups.TableGroup",
    "groups.StabilizerChain",
    "subdirect.subdirect_decompose",
    "subdirect.k4_criteria",
    "wreath.build_cover_group",
    "report.run_job",
    "cli.main",
)
RSS_SPANS = ("cosetgraph.build_coset_graph", "cosetgraph.quotient_graph")
COUNTS = (
    "cosetgraph.vertices",
    "cosetgraph.key_lookups",
    "cosetgraph.export_bytes",
    "groups.closure.elements",
    "groups.schreier.rows_kept",
    "perm.constructions",
    "perm.products",
    "wreath.products",
)
# ratio -> (numerator counter, denominator counter)
RATIOS = {
    "cosetgraph.bfs_new_ratio": ("cosetgraph.vertices", "cosetgraph.bfs_key_lookups"),
    "groups.schreier.keep_ratio": ("groups.schreier.rows_kept", "groups.schreier.rows_attempted"),
    "subdirect.link_hit_ratio": ("subdirect.links_accepted", "subdirect.link_attempts"),
}
STAGES = (
    "class-partition",
    "twist-identities",
    "kernel-witness",
    "kernel-generators",
    "block-structure",
    "block-count-prediction",
    "tuple-generators",
    "graph-build",
    "two-arc-transitive",
    "cover-quotient",
    "centralizer-structure",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{s}.self_s": "s" for s in SELF_SPANS}
    units["cli.import_s"] = "s"
    units.update({f"{s}.rss_growth_mb": "MB" for s in RSS_SPANS})
    units.update({c: "count" for c in COUNTS})
    units["cosetgraph.export_bytes"] = "bytes"
    units.update({r: "ratio" for r in RATIOS})
    units.update({f"report.stage.{s}_s": "s" for s in STAGES})
    units.update({
        "trace.overhead": "ratio",
        "trace.uncovered_s": "s",
        "trace.uncovered_share": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    exit_code: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(cmd: list[str], env: dict, log: Path) -> Child:
    """Run one process to completion; wall time spans spawn to exit."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_bytes(), err_path.read_bytes())


@dataclass
class Rep:
    wall_s: float = 0.0
    maxrss_mb: float = 0.0
    certs: list[dict] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


class Runner:
    def __init__(self, root: Path, work: Path, jobs: list[Job], gate: Gate):
        self.work = work
        self.jobs = jobs
        self.gate = gate
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work))
        self.errors: list[str] = []
        self.count = 0
        self.reference: list[float] = []

    def _log(self) -> Path:
        self.count += 1
        return self.work / f"child-{self.count}"

    def spawn(self, cmd: list[str], log: Path) -> Child:
        """Time the reference loop once, then run the child."""
        self.reference.append(reference_loop())
        return run_child(cmd, self.env, log)

    def warm_up(self) -> None:
        """Compile and cache the program's modules before anything is timed."""
        child = run_child([sys.executable, "-c", "import arccover.cli"], self.env, self._log())
        if child.exit_code != 0:
            self.errors.append("cannot import arccover.cli: " + _tail(child.stderr))

    def setup_sample(self) -> float:
        files = [str(j.job_file) for j in self.jobs]
        child = self.spawn([sys.executable, str(HERE / "child.py"), "setup", *files],
                           self._log())
        if child.exit_code != 0:
            self.errors.append("set-up failed: " + _tail(child.stderr))
        return child.wall_s

    def rep(self, traced: bool) -> Rep:
        rep = Rep()
        for job in self.jobs:
            if job.out_dir is not None:
                shutil.rmtree(job.out_dir, ignore_errors=True)
            log = self._log()
            span_file = log.with_suffix(".spans.json")
            if traced:
                cmd = [sys.executable, str(HERE / "child.py"), "trace", str(span_file),
                       f"{self.count}-{job.label}", *job.cli_args()]
            else:
                cmd = [sys.executable, "-m", "arccover.cli", *job.cli_args()]
            child = self.spawn(cmd, log)
            rep.wall_s += child.wall_s
            rep.maxrss_mb = max(rep.maxrss_mb, child.maxrss_mb)
            cert = self.gate.check(job, child.exit_code, child.stdout)
            if cert is None and child.stderr:
                self.gate.problems.append(f"{job.label} stderr: {_tail(child.stderr)}")
            if cert is not None:
                rep.certs.append(cert)
            if traced:
                try:
                    rep.traces.append(json.loads(span_file.read_text()))
                except (OSError, ValueError):
                    self.gate.problems.append(f"{job.label}: no readable spans")
        return rep


def reference_loop(rounds: int = REFERENCE_ROUNDS) -> float:
    """Seconds for a fixed loop of Python integer bytecode (no allocation)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(rounds):
        acc += (i * i) & 1023
    return time.perf_counter() - t0


def _tail(data: bytes, lines: int = 3) -> str:
    return " | ".join(data.decode(errors="replace").strip().splitlines()[-lines:])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-module metrics of one traced repetition, totalled over its jobs."""
    selfs: Counter = Counter()
    growth: Counter = Counter()
    counters: Counter = Counter()
    covered = 0.0
    for rec in rep.traces:
        selfs.update(spans.self_times(rec["spans"]))
        growth.update(spans.rss_growth_mb(rec["spans"]))
        counters.update(rec["counters"])
        covered += spans.covered_time(rec["spans"])
    m = {f"{s}.self_s": selfs.get(s, 0.0) for s in SELF_SPANS}
    m["cli.import_s"] = selfs.get("cli.import", 0.0)
    m.update({f"{s}.rss_growth_mb": growth.get(s, 0.0) for s in RSS_SPANS})
    m.update({c: counters.get(c, 0) for c in COUNTS})
    for ratio, (num, den) in RATIOS.items():
        m[ratio] = counters[num] / counters[den] if counters.get(den) else 0.0
    uncovered = max(rep.wall_s - covered, 0.0)
    m["trace.uncovered_s"] = uncovered
    m["trace.uncovered_share"] = uncovered / rep.wall_s if rep.wall_s else 0.0
    return m


def stage_metrics(rep: Rep) -> dict[str, float]:
    """Each stage's time as the untraced certificates record it, totalled."""
    totals: Counter = Counter()
    for cert in rep.certs:
        totals.update(cert.get("timings", {}))
    return {f"report.stage.{s}_s": float(totals.get(s, 0.0)) for s in STAGES}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def median_of(dicts: list[dict]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


@dataclass
class Result:
    workload: str
    gate: Gate
    errors: list[str]
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, list[float]]

    @property
    def correct(self) -> bool:
        return self.gate.failed == 0 and not self.errors and self.gate.attempted > 0


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 root: Path, work: Path) -> Result:
    jobs = write_job_files(name, seed, work)
    gate = Gate()
    runner = Runner(root, work, jobs, gate)
    runner.warm_up()
    start = time.perf_counter()
    untraced: list[Rep] = []
    traced_reps: list[Rep] = []
    setups: list[float] = []
    while not runner.errors:
        if traced:
            untraced.append(runner.rep(traced=False))
            traced_reps.append(runner.rep(traced=True))
        else:
            if len(setups) < SETUP_SAMPLES:
                setups.append(runner.setup_sample())
            untraced.append(runner.rep(traced=False))
        elapsed = time.perf_counter() - start
        setups_done = traced or len(setups) >= SETUP_SAMPLES
        if (elapsed >= seconds and setups_done) or elapsed >= HARD_STOP_S:
            break

    samples: dict[str, list[float]] = {}
    if runner.errors or not untraced:
        return Result(name, gate, runner.errors, {}, samples)
    if traced:
        units = per_layer_units()
        values = median_of([layer_metrics(r) for r in traced_reps])
        values.update(median_of([stage_metrics(r) for r in untraced]))
        traced_job = statistics.median(r.wall_s for r in traced_reps)
        untraced_job = statistics.median(r.wall_s for r in untraced)
        values["trace.overhead"] = traced_job / untraced_job - 1.0
        metrics = {k: (values[k], units[k]) for k in units}
        samples["traced job_s"] = [r.wall_s for r in traced_reps]
        samples["untraced job_s"] = [r.wall_s for r in untraced]
    else:
        scale = REFERENCE_S / statistics.median(runner.reference)
        samples["job_s"] = [r.wall_s for r in untraced]
        samples["setup_s"] = setups
        samples["peak_rss_mb"] = [r.maxrss_mb for r in untraced]
        samples["reference_s"] = runner.reference
        metrics = {
            "job_s": (statistics.median(samples["job_s"]) * scale, "s"),
            "setup_s": (statistics.median(setups) * scale, "s"),
            "peak_rss_mb": (max(samples["peak_rss_mb"]), "MB"),
        }
    return Result(name, gate, runner.errors, metrics, samples)


def report(result: Result) -> None:
    g = result.gate
    verdict = "PASS" if result.correct else "FAIL"
    share = g.failed / g.attempted if g.attempted else 1.0
    print(f"[{result.workload}] gate {verdict}: {g.attempted} job runs, "
          f"{g.failed} failed (failed_share {share:.4f})")
    for problem in (result.errors + g.problems)[:10]:
        print(f"[{result.workload}]   {problem}")
    for name, values in result.samples.items():
        q1, med, q3 = quartiles(values)
        print(f"[{result.workload}] {name}: median {med:.4f}, quartiles "
              f"{q1:.4f}..{q3:.4f}, min {min(values):.4f}, n={len(values)}")
    for name, (value, unit) in result.metrics.items():
        print(f"[{result.workload}] {name} = {value:.6g} {unit}")


def result_line(results: list[Result], prefix: bool) -> dict:
    metrics = {}
    for r in results:
        for name, (value, unit) in r.metrics.items():
            key = f"{r.workload}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.gate.attempted for r in results),
        "failed": sum(r.gate.failed for r in results),
        "metrics": metrics,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "arccover" / "cli.py").is_file():
        print(f"no arccover sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    base = root / ".perfbench_tmp"
    work = base / str(os.getpid())
    results = []
    try:
        for name in names:
            wdir = work / name
            wdir.mkdir(parents=True)
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        root, wdir))
            report(results[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run's directory is still there
    line = result_line(results, prefix=len(names) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
