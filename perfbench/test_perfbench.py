"""Self-tests of the benchmark that need no long run.

    python3 -m pytest perfbench -q      (from the root of a checkout)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import gate
import jobs
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arccover.groups import PermGroup, group_order  # noqa: E402
from arccover.perm import parse_cycles  # noqa: E402


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9]
    recs = [
        ["a", 0.0, 10.0, -1, 100.0, 110.0],
        ["b", 1.0, 4.0, 0, 100.0, 105.0],
        ["c", 2.0, 3.0, 1, 105.0, 105.0],
        ["b", 5.0, 9.0, 0, 105.0, 110.0],
    ]
    assert spans.self_times(recs) == {"a": 3.0, "b": 6.0, "c": 1.0}
    assert spans.rss_growth_mb(recs) == {"a": 10.0, "b": 10.0, "c": 0.0}
    assert spans.covered_time(recs) == 10.0


def test_self_times_sum_to_covered_time():
    recs = [
        ["top", 0.0, 8.0, -1, 0, 0],
        ["x", 1.0, 2.5, 0, 0, 0],
        ["y", 3.0, 7.0, 0, 0, 0],
        ["x", 4.0, 5.0, 2, 0, 0],
        ["next", 9.0, 12.0, -1, 0, 0],
    ]
    assert sum(spans.self_times(recs).values()) == pytest.approx(spans.covered_time(recs))


def test_tracer_records_nesting_and_result_counters():
    tracer = spans.Tracer("t")

    def inner(n):
        return list(range(n))

    wrapped_inner = tracer.wrap(inner, "inner",
                                lambda args, out: tracer.counters.update(items=len(out)))
    outer = tracer.wrap(lambda: wrapped_inner(3) + wrapped_inner(2), "outer")
    assert outer() == [0, 1, 2, 0, 1]
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counters["items"] == 5
    assert all(s[2] >= s[1] for s in tracer.spans)


# -- correctness gate --------------------------------------------------------


def _n7_job() -> jobs.Job:
    template = jobs.WORKLOADS["schreier-n7"][0]
    return jobs.Job(template, Path("job-n7.json"))


def _n7_cert(d: int = 360) -> dict:
    return {
        "format": "arccover-certificate/1",
        "checks": [{"id": "block-structure", "computed": {"d": d, "bound_ok": True},
                    "passed": True}],
        "skips": [],
        "artifacts": [],
        "summary": {"checks": 1, "passed": 1, "failed": 0, "all_passed": True},
        "timings": {"block-structure": 0.5},
    }


def _stdout(cert: dict) -> bytes:
    return json.dumps(cert, indent=2).encode()


def test_gate_accepts_a_good_run_and_ignores_timings():
    g = gate.Gate()
    job = _n7_job()
    assert g.check(job, 0, _stdout(_n7_cert())) is not None
    other_timing = _n7_cert()
    other_timing["timings"] = {"block-structure": 9.9}
    assert g.check(job, 0, _stdout(other_timing)) is not None
    assert (g.attempted, g.failed) == (2, 0)


def test_gate_rejects_tampered_certificate():
    g = gate.Gate()
    assert g.check(_n7_job(), 0, _stdout(_n7_cert(d=359))) is None
    failed = _n7_cert()
    failed["summary"]["all_passed"] = False
    assert g.check(_n7_job(), 0, _stdout(failed)) is None
    assert (g.attempted, g.failed) == (2, 2)


def test_gate_rejects_wrong_exit_code():
    g = gate.Gate()
    assert g.check(_n7_job(), 3, _stdout(_n7_cert())) is None
    assert any("exit code 3" in p for p in g.problems)


def test_gate_rejects_non_json_stdout():
    g = gate.Gate()
    assert g.check(_n7_job(), 0, b"Traceback (most recent call last):\n") is None
    assert any("not JSON" in p for p in g.problems)


def test_gate_rejects_a_changed_repeat():
    g = gate.Gate()
    first = _n7_cert()
    assert g.check(_n7_job(), 0, _stdout(first)) is not None
    changed = _n7_cert()
    changed["checks"][0]["computed"]["extra"] = 1
    assert g.check(_n7_job(), 0, _stdout(changed)) is None
    assert g.failed == 1


def test_every_pinned_fact_function_rejects_an_empty_certificate():
    for templates in jobs.WORKLOADS.values():
        for t in templates:
            job = jobs.Job(t, Path("unused"))
            problems, _ = gate.inspect(job, t.exit_code, b"{}")
            assert problems, t.label


# -- seeded job generator ----------------------------------------------------

ALL_TEMPLATES = [t for ts in jobs.WORKLOADS.values() for t in ts]


@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.label)
def test_seed_zero_gives_the_published_pair(template):
    assert jobs.seeded_pair(template.group, template.x, template.y, 0, template.label) == (
        template.x, template.y)


@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.label)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeds_keep_generation_and_orders(template, seed):
    spec = jobs.GROUPS[template.group]
    deg = spec["degree"]
    x, y = jobs.seeded_pair(template.group, template.x, template.y, seed, template.label)
    assert (x, y) != (template.x, template.y)
    px, py = parse_cycles(x, deg), parse_cycles(y, deg)
    assert px.order() == 2
    assert py.order() == parse_cycles(template.y, deg).order()
    group = PermGroup.from_cycle_strings(spec["generators"], deg)
    assert group.contains(px) and group.contains(py)
    assert group_order([px, py], deg) == group.order()


def test_generated_job_files_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for name in jobs.WORKLOADS:
        first = [j.spec for j in jobs.write_job_files(name, 7, a)]
        second = [j.spec for j in jobs.write_job_files(name, 7, b)]
        strip = [{k: v for k, v in s.items() if k not in ("catalog", "out_dir")}
                 for s in first]
        assert strip == [{k: v for k, v in s.items() if k not in ("catalog", "out_dir")}
                         for s in second]


# -- benchmark description ---------------------------------------------------


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
