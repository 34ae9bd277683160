"""Pipeline certificates, phases, suites, and regression baselines."""

import dataclasses
import json
import math
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest

from cycle_oracle import class_partition
from arccover import report, wreath
from arccover.catalog import resolve_group
from arccover.cosetgraph import VERTEX_CAP_DEFAULT
from arccover.errors import ValidationError
from arccover.perm import parse_cycles
from arccover.report import GAP_STATEMENTS, SUITE_NAMES, JobSpec, run_job
from arccover.suite import load_baselines, run_suite

JOB1 = JobSpec(n=4, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)")
JOB2 = JobSpec(n=4, group="A5", x="(1,2)(3,4)", y="(1,5,3)", vertex_cap=10_000)


# ---------------------------------------------------------------------------
# job specs and job files
# ---------------------------------------------------------------------------


def test_job_name_prefers_label():
    assert JobSpec(n=4, group="A5", x="(1,2)", y="(1,2,3)", label="demo").job_name() == "demo"
    assert JOB1.job_name() == "n4-A5-x(1_2)(3_4)-y(1_2_3_4_5)"


def test_job_file_roundtrip(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "n": 4, "group": "A5", "x": "(1,2)(3,4)", "y": "(1,2,3,4,5)",
        "vertex_cap": 500, "formats": ["edge-list"], "label": "filed",
    }))
    spec = JobSpec.from_file(str(path))
    assert spec.n == 4 and spec.vertex_cap == 500
    assert spec.formats == ("edge-list",)
    assert spec.label == "filed"


@pytest.mark.parametrize(
    "raw,fragment",
    [
        ([1, 2], "JSON object"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)", "extra": 1}, "unknown job file keys: extra"),
        ({"n": 4, "group": "A5"}, "lacks required keys: x, y"),
        ({"n": "4", "group": "A5", "x": "(1,2)", "y": "(1,2,3)"}, "'n' must be an integer"),
        ({"n": 4, "group": "A5", "x": 12, "y": "(1,2,3)"}, "'x' must be a string"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)", "vertex_cap": "10"},
         "'vertex_cap' must be an integer"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)", "formats": "edge-list"},
         "'formats' must be a list"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)", "formats": [["edge-list"]]},
         "unknown export format"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)", "seed": 0},
         "unknown job file keys: seed"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)", "vertex_cap": -5},
         "'vertex_cap' must be at least 1"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)", "vertex_cap": 0},
         "'vertex_cap' must be at least 1"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)", "enum_cap": 0},
         "'enum_cap' must be at least 1"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)", "time_budget": -0.5},
         "'time_budget' must be at least 0"),
        ({"n": 4, "group": "A5", "x": "(1,2)", "y": "(1,2,3)",
          "time_budget": float("nan")},
         "'time_budget' must be at least 0"),
    ],
)
def test_job_file_rejections(tmp_path, raw, fragment):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="(?s)" + fragment.replace("(", "\\(").replace(")", "\\)")):
        JobSpec.from_file(str(path))


def test_job_file_unreadable():
    with pytest.raises(ValidationError, match="cannot read job file"):
        JobSpec.from_file("/nonexistent/job.json")


# ---------------------------------------------------------------------------
# run_job: phases, determinism, caps, rejection
# ---------------------------------------------------------------------------


def check_ids(cert):
    return [rec["id"] for rec in cert.payload["checks"]]


def test_invalid_job_raises_before_any_certificate():
    bad = JobSpec(n=4, group="A5", x="(1,2)(3,4)", y="(1,2)(4,5)")
    with pytest.raises(ValidationError, match="odd prime"):
        run_job(bad)


def test_unknown_phase_rejected():
    with pytest.raises(ValidationError, match="unknown phase"):
        run_job(JOB1, phase="everything")


def test_phase_truncation():
    construct = check_ids(run_job(JOB1, phase="construct"))
    assert construct == ["job-valid", "class-partition", "twist-identities", "kernel-witness"]
    decompose = check_ids(run_job(JOB1, phase="decompose"))
    assert decompose == construct + [
        "kernel-generators", "block-structure",
        "block-count-prediction", "tuple-generators",
    ]
    graph = check_ids(run_job(JOB1, phase="graph"))
    assert graph == decompose + ["graph-build", "two-arc-transitive"]
    full = check_ids(run_job(JOB1))
    assert full == graph + ["cover-quotient", "centralizer-structure"]


def test_no_job_closes_h_or_l(monkeypatch):
    """No stage closes H = Sym{2..n} or L = Sym{3..n}, as tops or as
    embedded wreath elements: `twist-identities` tests L's generators one
    gather each, `two-arc-transitive` acts with H's generators on the orbit
    of 2, and the graph's neighbour seeds are its sections. `decompose` jobs
    at n = 4 and 7 and a `full` example-1 job close neither."""
    calls = {"l_closure": 0, "h_closure": 0}

    def counted(real):
        def closure(gens, identity, *args, **kwargs):
            tops = tuple(getattr(s, "sigma", s) for s in gens)
            if tops:
                n = tops[0].degree
                calls["l_closure"] += tops == wreath._sym_tail_gens(n, start=3)
                calls["h_closure"] += tops == wreath._sym_tail_gens(n, start=2)
            return real(gens, identity, *args, **kwargs)

        return closure

    for module in (wreath, report):  # the modules of `src/` that call `closure`
        monkeypatch.setattr(module, "closure", counted(module.closure))
    for n in (4, 7):
        spec = JobSpec(n=n, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)")
        assert run_job(spec, phase="decompose").ok
    assert calls == {"l_closure": 0, "h_closure": 0}
    assert run_job(JOB1, phase="full").ok
    assert calls == {"l_closure": 0, "h_closure": 0}


def test_full_certificate_shape_and_values():
    cert = run_job(JOB1)
    assert cert.ok
    assert list(cert.payload) == [
        "format", "version", "job", "checks", "skips", "artifacts",
        "summary", "gaps", "environment", "timings",
    ]
    assert cert.payload["format"] == "arccover-certificate/6"
    assert cert.payload["gaps"] == list(GAP_STATEMENTS)
    assert cert.payload["summary"] == {
        "checks": 12, "passed": 12, "failed": 0, "all_passed": True,
    }
    env = cert.payload["environment"]
    assert env["vertex_cap"] == JOB1.vertex_cap
    blocks = cert.check("block-structure")["computed"]
    assert blocks["d"] == 1
    assert blocks["order_y"] == "1440"
    graph = cert.check("graph-build")["computed"]
    assert graph["vertices"] == 240 and graph["girth"] == 9
    assert graph["connected"] and graph["valency"] == 3
    quotient = cert.check("cover-quotient")["computed"]
    assert quotient["fibre_size"] == 60 and quotient["complete"]
    central = cert.check("centralizer-structure")["computed"]
    assert central["centralizer_order"] == 24
    assert central["quotient"]["order"] == 10 and central["quotient"]["girth"] == 5


def test_certificates_are_deterministic():
    a = run_job(JOB1)
    b = run_job(JOB1)
    assert a.core_bytes() == b.core_bytes()
    pa, pb = json.loads(a.to_bytes()), json.loads(b.to_bytes())
    assert pa.pop("timings").keys() == pb.pop("timings").keys()
    assert pa == pb
    assert a.check("graph-build")["computed"] == b.check("graph-build")["computed"]


def test_capacity_skip_keeps_certificate_green():
    cert = run_job(JOB2)
    assert cert.ok
    skip = cert.skipped("graph-build")
    assert skip is not None and skip["kind"] == "capacity"
    assert "10000" in skip["reason"]
    assert cert.capacity_blocked()
    assert cert.check("two-arc-transitive")["passed"]
    assert cert.check("cover-quotient") is None
    blocks = cert.check("block-structure")["computed"]
    assert blocks["d"] == 3 and blocks["order_y"] == "5184000"


def test_orders_beyond_the_int_digit_limit(monkeypatch):
    """d = 2520 with |T| = 60, as A5 certifies at n = 8: |M| = 60^2520 has
    4481 digits, more than str(int) converts by default. A stub structure
    drives block-structure and the graph-build capacity skip without an
    n = 8 run: both stages certify, the skip reason writes n·|T|^d in
    factored form with its digit count, and the certificate serializes."""
    a5, n, d = resolve_group("A5"), 8, 2520
    structure = SimpleNamespace(
        group=a5,
        block_count=d,
        k=math.factorial(n - 1),
        base_of=np.repeat(np.arange(0, 2 * d, 2), 2),  # blocks {2b, 2b + 1}
        bases=np.arange(0, 2 * d, 2),
        order=lambda: a5.order() ** d,
    )
    monkeypatch.setattr(report, "STAGES", tuple(
        st for st in report.STAGES if st.id in ("block-structure", "graph-build")
    ))
    data = SimpleNamespace(ctx=SimpleNamespace(n=n), job=SimpleNamespace(group=a5))
    run = report._Run(JobSpec(n=n, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)"), data, 0.0)
    run.products["kernel-generators"] = SimpleNamespace(structure=lambda: structure)
    run.run_stages(report.PHASES.index("graph"))
    cert = run.certificate()
    assert json.loads(cert.core_bytes())["summary"]["all_passed"]
    blocks = cert.check("block-structure")["computed"]
    assert Decimal(blocks["order_m"]) == 60**d
    assert Decimal(blocks["order_y"]) == 60**d * math.factorial(n)
    assert blocks["order_y_digits"] == len(blocks["order_y"]) == 4486
    assert blocks["bound_ok"] is True and blocks["block_sizes"] == [[2, d]]
    skip = cert.skipped("graph-build")
    assert skip["kind"] == "capacity" and cert.capacity_blocked()
    digits = len(str(Decimal(n * 60**d)))
    assert digits == 4482
    assert skip["reason"] == (
        f"expected {n}·60^{d} vertices ({digits} digits) exceeds the cap {VERTEX_CAP_DEFAULT}"
    )


def test_budget_skips_are_not_capacity():
    cert = run_job(JobSpec(**{**JOB1.__dict__, "time_budget": 0.0}))
    assert cert.ok
    assert check_ids(cert) == ["job-valid"]
    assert all(rec["kind"] == "budget" for rec in cert.payload["skips"])
    assert not cert.capacity_blocked()


def test_budget_runs_out_between_schreier_frontiers(monkeypatch):
    """A clock that moves one second per reading between the passes of the
    kernel's normal closure and stands still otherwise: with a 3.5 s budget
    the fourth check between passes (n = 7 has four) stops the stage, and
    the skip says how far the closure and the sifting of its rows got."""
    clock = {"now": 0.0, "step": 0.0}

    def perf_counter():
        clock["now"] += clock["step"]
        return clock["now"]

    real = report.normal_closure
    progress = []

    def normal_closure(data, sifter, conjugation_cap, out_of_budget):
        def counted():
            clock["step"] = 1.0  # the sifter's readings, between these, take no time
            progress.append(out_of_budget())
            clock["step"] = 0.0
            return progress[-1]

        return real(data, sifter, conjugation_cap, counted)

    monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=perf_counter))
    monkeypatch.setattr(report, "normal_closure", normal_closure)
    spec = JobSpec(n=7, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)", time_budget=3.5)
    cert = run_job(spec, "decompose")
    assert progress == [False] * 3 + [True]
    assert check_ids(cert) == ["job-valid", "class-partition", "twist-identities", "kernel-witness"]
    assert cert.ok and not cert.capacity_blocked()
    assert cert.payload["skips"] == [{
        "stage": "kernel-generators",
        "kind": "budget",
        "reason": "time budget exhausted",
        "details": {"conjugations": 33, "rows_kept": 20, "decompositions": 1},
    }]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_class_partition_matches_the_loop_oracle(n):
    """The sort and array orbits of `class-partition` record what the
    position-by-position loop records, on the cover data and on data whose
    L is cut to its first generator (smaller for n >= 5), replaced by a
    Sym of the same order that moves 1, or whose swap is (1,3)."""
    data = wreath.build_cover_group(JobSpec(n=n, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)")
                                    .cover_job())
    moves_1 = "(" + ",".join(map(str, [1, *range(4, n + 1)])) + ")"
    outside = (parse_cycles(moves_1, n),) + ((parse_cycles(f"({n - 1},{n})", n),) if n > 4 else ())
    variants = {
        "cover": data,
        "first-generator": dataclasses.replace(data, l_top_gens=data.l_top_gens[:1]),
        "moves-1": dataclasses.replace(data, l_top_gens=outside),
        "swap-13": dataclasses.replace(data, delta=parse_cycles("(1,3)", n)),
    }
    failed = {}
    for name, variant in variants.items():
        computed, ok, _ = report._class_partition(SimpleNamespace(n=n, data=variant))
        assert (computed, ok) == class_partition(variant)
        failed[name] = sorted(key for key, value in computed.items() if value is False)
    assert failed == {
        "cover": [],
        "first-generator": [] if n == 4 else ["regular"],
        "moves-1": ["regular"],
        "swap-13": ["reflected"],
    }


def test_image_order_is_certified_from_the_tops(monkeypatch):
    """|Y/M| = n! rests on the Coxeter relations of the lifts of Sym(n)'s
    generators, which twist-identities (g^2 = 1, g commutes with Sym{3..n})
    and kernel-witness ((g·(2,3))^3 has trivial top) certify: when either
    fails, kernel-generators does not run and the decomposition is left
    out."""
    stages = report.STAGES
    for dep in ("twist-identities", "kernel-witness"):
        failing = tuple(
            dataclasses.replace(st, body=lambda run: ({}, False, None)) if st.id == dep else st
            for st in stages
        )
        monkeypatch.setattr(report, "STAGES", failing)
        cert = run_job(JOB1, "decompose")
        assert cert.check(dep)["passed"] is False
        assert cert.check("kernel-generators") is None
        assert cert.check("block-structure") is None
    monkeypatch.setattr(report, "STAGES", stages)
    rec = run_job(JOB1, "decompose").check("kernel-generators")
    assert rec["passed"] and rec["computed"] == {
        "conjugations": 12, "rows_kept": 4, "decompositions": 1, "component_count": 6,
    }


def test_exports_written_with_out_dir(tmp_path):
    spec = JobSpec(**{**JOB1.__dict__, "out_dir": str(tmp_path),
                      "formats": ("edge-list", "adjacency-text"), "label": "ex"})
    cert = run_job(spec)
    assert cert.payload["artifacts"] == ["ex.edges.txt", "ex.adj.txt"]
    edge_lines = (tmp_path / "ex.edges.txt").read_text().splitlines()
    assert len(edge_lines) == 240 * 3 // 2
    adj_lines = (tmp_path / "ex.adj.txt").read_text().splitlines()
    assert len(adj_lines) == 240


# ---------------------------------------------------------------------------
# suites and baselines
# ---------------------------------------------------------------------------


def test_packaged_baselines_present():
    base = load_baselines()
    assert base == {
        "d/n=7/A5/(1,2)(3,4)/(1,2,3,4,5)": 360,
        "girth/n=4/A5/(1,2)(3,4)/(1,2,3,4,5)": 9,
        "girth/n=4/A5/(1,2)(3,4)/(1,5,3)": 15,
    }
    assert load_baselines("/nonexistent/baselines.json") == {}


def test_baselines_file_must_parse(tmp_path):
    bad = tmp_path / "base.json"
    bad.write_text("{nope")
    with pytest.raises(ValidationError, match="cannot read baselines"):
        load_baselines(str(bad))


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError, match="unknown suite"):
        run_suite("everything")
    assert SUITE_NAMES == ("examples", "small-n", "extended")


def test_examples_suite(tmp_path):
    result = run_suite("examples", out_dir=str(tmp_path))
    assert result.ok
    assert [c.payload["job"]["group"] for c in result.certificates] == ["A5", "A5", "A11"]
    assert result.regressions == []
    for name in ("example-1", "example-2", "example-3", "suite-examples.txt"):
        path = tmp_path / (name if name.endswith(".txt") else f"{name}.json")
        assert path.exists()
    table = (tmp_path / "suite-examples.txt").read_text()
    assert table.count("pass") >= 3 and table.rstrip().endswith("all checks passed")


def test_small_n_suite_regressions_against_packaged_values():
    result = run_suite("small-n")
    assert result.ok
    by_key = {r["key"]: r for r in result.regressions}
    assert by_key["d/n=7/A5/(1,2)(3,4)/(1,2,3,4,5)"]["computed"] == 360
    assert by_key["girth/n=4/A5/(1,2)(3,4)/(1,2,3,4,5)"]["computed"] == 9
    assert all(not r.get("frozen") for r in result.regressions)
    d_values = [
        c.check("block-structure")["computed"]["d"] for c in result.certificates
    ]
    assert d_values == [1, 12, 60, 360]


def test_user_baselines_freeze_and_mismatch(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"d/n=7/A5/(1,2)(3,4)/(1,2,3,4,5)": 999}))
    result = run_suite("small-n", baselines_path=str(path))
    assert not result.ok
    by_key = {r["key"]: r for r in result.regressions}
    bad = by_key["d/n=7/A5/(1,2)(3,4)/(1,2,3,4,5)"]
    assert bad["passed"] is False and bad["baseline"] == 999 and bad["computed"] == 360
    frozen = by_key["girth/n=4/A5/(1,2)(3,4)/(1,2,3,4,5)"]
    assert frozen["passed"] and frozen.get("frozen")
    written = json.loads(path.read_text())
    assert written["girth/n=4/A5/(1,2)(3,4)/(1,2,3,4,5)"] == 9
    assert written["d/n=7/A5/(1,2)(3,4)/(1,2,3,4,5)"] == 999
    assert "FAILURES PRESENT" in result.summary_table()


def test_parallel_suite_matches_serial():
    serial = run_suite("examples")
    parallel = run_suite("examples", parallel=True)
    assert parallel.ok
    for a, b in zip(serial.certificates, parallel.certificates):
        assert a.core_bytes() == b.core_bytes()
