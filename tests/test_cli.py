"""The command-line front end: verbs, exit codes, files, and wiring."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arccover.cli import main

JOB1_FLAGS = ["--n", "4", "--group", "A5", "--x", "(1,2)(3,4)", "--y", "(1,2,3,4,5)"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_accepts_good_job(capsys):
    code, out, _ = run_cli(["validate", *JOB1_FLAGS], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["group_order"] == 60
    assert payload["y_order"] == 5


def test_validate_rejects_bad_order(capsys):
    code, out, _ = run_cli(
        ["validate", "--n", "4", "--group", "A5", "--x", "(1,2)(3,4)", "--y", "(1,2)(4,5)"],
        capsys,
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("odd prime" in p for p in payload["problems"])


@pytest.mark.parametrize("y", ["(1,2,3,4,5)", "(1,2,3)"])
def test_validate_reports_only_membership_for_x_outside_t(capsys, y):
    """<x, y> = T is checked only for x, y in T: with x = (1,2) the pair
    generates S5 or S3, neither of them a subgroup of A5."""
    code, out, _ = run_cli(
        ["validate", "--n", "4", "--group", "A5", "--x", "(1,2)", "--y", y], capsys
    )
    assert code == 2
    assert json.loads(out)["problems"] == ["x is not an element of T"]


def test_validate_rejects_malformed_cycles(capsys):
    code, out, _ = run_cli(
        ["validate", "--n", "4", "--group", "A5", "--x", "(1,2", "--y", "(1,2,3)"],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["rejected"] is True


def test_missing_flags_rejected(capsys):
    code, out, _ = run_cli(["validate", "--n", "4", "--group", "A5"], capsys)
    assert code == 2
    assert "missing required flags: --x, --y" in json.loads(out)["reason"]


def test_job_flag_conflicts_with_field_flags(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"n": 4, "group": "A5", "x": "(1,2)(3,4)", "y": "(1,2,3,4,5)"}))
    code, out, _ = run_cli(["validate", "--job", str(job), "--n", "4"], capsys)
    assert code == 2
    assert "either --job or" in json.loads(out)["reason"]


def test_unknown_group_rejected(capsys):
    code, out, _ = run_cli(
        ["validate", "--n", "4", "--group", "M11", "--x", "(1,2)", "--y", "(1,2,3)"],
        capsys,
    )
    assert code == 2


# ---------------------------------------------------------------------------
# pipeline verbs
# ---------------------------------------------------------------------------


def test_construct_verb_emits_certificate(capsys):
    code, out, err = run_cli(["construct", *JOB1_FLAGS], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == "arccover-certificate/6"
    assert [c["id"] for c in payload["checks"]] == [
        "job-valid", "class-partition", "twist-identities", "kernel-witness",
    ]
    assert err.startswith("pass")


def test_decompose_verb_reports_d(capsys):
    code, out, _ = run_cli(["decompose", *JOB1_FLAGS], capsys)
    assert code == 0
    payload = json.loads(out)
    by_id = {c["id"]: c for c in payload["checks"]}
    assert by_id["block-structure"]["computed"]["d"] == 1
    assert "graph-build" not in by_id


def test_decompose_at_n9_certifies_d(capsys):
    """n = 9: k = 8! cycles, and every block a pair {α, α^-1}, so d = 8!/2."""
    code, out, _ = run_cli(["decompose", "--n", "9", *JOB1_FLAGS[2:]], capsys)
    assert code == 0
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert by_id["block-structure"]["computed"]["d"] == 20160
    assert by_id["twist-identities"]["computed"]["intersection_order"] == 5040


def test_decompose_at_n11_is_rejected(capsys):
    code, out, _ = run_cli(["decompose", "--n", "11", *JOB1_FLAGS[2:]], capsys)
    assert code == 2
    assert "materialize only for 3 <= n <= 10" in json.loads(out)["reason"]


@pytest.mark.parametrize("flag,value", [("--vertex-cap", "-5"), ("--enum-cap", "0")])
def test_cap_below_one_rejected_before_work(capsys, flag, value):
    code, out, _ = run_cli(["graph", *JOB1_FLAGS, flag, value], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["rejected"] is True
    assert "must be at least 1" in payload["reason"]


def test_format_without_out_rejected_before_work(capsys, monkeypatch):
    import arccover.report as report

    monkeypatch.setattr(report, "build_cover_group", lambda job: pytest.fail("pipeline ran"))
    code, out, _ = run_cli(["graph", *JOB1_FLAGS, "--format", "edge-list"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["rejected"] is True
    assert "output directory" in payload["reason"]


def test_graph_verb_capacity_exit(capsys):
    code, out, _ = run_cli(["graph", *JOB1_FLAGS, "--vertex-cap", "100"], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["summary"]["all_passed"] is True
    assert any(s["kind"] == "capacity" for s in payload["skips"])


def test_quotient_verb_full_run_with_outputs(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "n": 4, "group": "A5", "x": "(1,2)(3,4)", "y": "(1,2,3,4,5)",
        "label": "clijob",
    }))
    code, out, _ = run_cli(
        ["quotient", "--job", str(job), "--out", str(tmp_path / "results"),
         "--format", "edge-list", "--format", "adjacency-text"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"checks": 12, "passed": 12, "failed": 0, "all_passed": True}
    results = tmp_path / "results"
    assert (results / "clijob.json").exists()
    assert (results / "clijob.edges.txt").exists()
    assert (results / "clijob.adj.txt").exists()
    on_disk = json.loads((results / "clijob.json").read_text())
    assert on_disk["summary"]["all_passed"] is True


@pytest.mark.parametrize("label", ["a/b", "a\\b", "nul\0", ".", ".."])
def test_label_that_is_no_file_name_rejected(tmp_path, capsys, label):
    """A label names the output files, so it must be a plain file name: one
    JSON rejection and exit 2, not a traceback from opening the export."""
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "n": 4, "group": "A5", "x": "(1,2)(3,4)", "y": "(1,2,3,4,5)", "label": label,
        "out_dir": str(tmp_path / "results"), "formats": ["edge-list"],
    }))
    code, out, err = run_cli(["quotient", "--job", str(job)], capsys)
    assert code == 2
    assert json.loads(out) == {
        "rejected": True, "reason": f"job field 'label' must be a plain file name, got {label!r}"
    }
    assert "Traceback" not in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("verb", ["construct", "quotient", "suite"])
def test_unwritable_out_is_a_rejection(tmp_path, capsys, verb):
    """--out under a regular file: one JSON rejection and exit 2."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["suite", "examples"] if verb == "suite" else [verb, *JOB1_FLAGS]
    code, out, err = run_cli([*argv, "--out", str(blocker / "results")], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["rejected"] is True
    assert payload["reason"].startswith("cannot write output: ")
    assert "Traceback" not in err


def test_failing_check_exits_one(capsys, monkeypatch):
    import arccover.cosetgraph as cosetgraph

    def broken(h_gens, k_gens, degree):
        return {"index": 3, "two_transitive": False}

    monkeypatch.setattr(cosetgraph, "two_arc_transitive", broken)
    code, out, _ = run_cli(["graph", *JOB1_FLAGS], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["all_passed"] is False
    failed = [c["id"] for c in payload["checks"] if not c["passed"]]
    assert failed == ["two-arc-transitive"]


def test_capacity_skip_records_progress(capsys):
    code, out, _ = run_cli(["decompose", *JOB1_FLAGS, "--enum-cap", "10"], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["skips"] == [{
        "stage": "kernel-generators",
        "kind": "capacity",
        "reason": "normal closure exceeded cap 10 conjugations",
        "details": {"conjugations": 3, "rows_kept": 4, "decompositions": 1},
    }]


@pytest.mark.parametrize("argv, reason", [
    (["validate", "--n", "abc", *JOB1_FLAGS[2:]], "argument --n: invalid int value: 'abc'"),
    (["quotient", *JOB1_FLAGS, "--format", "graphml"],
     "argument --format: invalid choice: 'graphml'"),
    (["decompose", *JOB1_FLAGS, "--colour", "red"], "unrecognized arguments: --colour red"),
    ([], "the following arguments are required: verb"),
])
def test_argument_errors_are_rejections(capsys, argv, reason):
    """argparse's rejections print the one JSON object every rejection
    prints, exit 2, and keep the usage on stderr."""
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["rejected"] is True and payload["reason"].startswith(reason)
    assert err.startswith("usage: arccover")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "arccover" in capsys.readouterr().out


# job files: construct on a valid pair of T with n in -1..10, then a few
# fields replaced by mistyped or out-of-range values or dropped; construct is
# fast up to n = 8, so the jobs that stay valid run for real. The pipeline
# verbs get a valid job at n = 4..6 with small caps and a time budget that
# is absent, 0 or 1e-4, so their stages run and are cut short
PAIRS = st.sampled_from([
    ("A5", "(1,2)(3,4)", "(1,2,3,4,5)"),
    ("A5", "(1,2)(3,4)", "(1,5,3)"),
    ("A7", "(1,2)(3,4)", "(1,2,3,4,5,6,7)"),
    ("PSL27", "(1,8)(2,7)(3,4)(5,6)", "(1,2,3,4,5,6,7)"),
    ("A11", "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)"),
])
PIPELINE = ("decompose", "graph", "quotient")
SMALL_CAPS = st.integers(1, 300)
BAD = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-2, 10**6),
    st.lists(st.integers(0, 5), max_size=3), st.text(max_size=4),
    st.sampled_from(["B5", "(1,2", "(1,1)", "(0,1)", "(1,99)", "()", "(1,2)", "edge-list"]),
)
FIELDS = ("n", "group", "x", "y", "time_budget", "enum_cap", "vertex_cap",
          "formats", "label", "colour")


@st.composite
def job_files(draw):
    verb = draw(st.sampled_from(("construct", *PIPELINE)))
    group, x, y = draw(PAIRS)
    if verb in PIPELINE:
        job = {"n": draw(st.integers(4, 6)), "group": group, "x": x, "y": y,
               "enum_cap": draw(SMALL_CAPS), "vertex_cap": draw(SMALL_CAPS)}
        budget = draw(st.sampled_from([None, 0, 1e-4]))
        return verb, job if budget is None else {**job, "time_budget": budget}
    job = {"n": draw(st.integers(-1, 10)), "group": group, "x": x, "y": y}
    job.update(draw(st.dictionaries(st.sampled_from(FIELDS), BAD, max_size=2)))
    for key in draw(st.sets(st.sampled_from(("n", "group", "x", "y")), max_size=1)):
        del job[key]
    return verb, draw(st.sampled_from([job, job, job, [job], job.get("n")]))


@settings(max_examples=160, deadline=None, derandomize=True)
@given(job_files())
def test_fuzzed_job_files_exit_cleanly(case):
    """Any job file gives one JSON object on stdout and an exit code in 0..3."""
    verb, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(raw))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, "--job", str(path)])
    assert code in (0, 1, 2, 3)
    assert isinstance(json.loads(out.getvalue()), dict)
    assert "Traceback" not in err.getvalue()


# flags: a pair of T with --x or --y possibly malformed, --n, the two caps
# and --format drawn with or without --out, for validate and construct;
# --n, the caps and --format also draw values argparse itself rejects. The
# pipeline verbs get a valid pair at n = 4..6, small caps and valid formats
CYCLES = st.sampled_from(["(1,2", "(0,1)", "(1,1)", "(1,99)", "()", "", "x", "(1,2)(3,4)",
                          "(1,5,3)"])
NOT_INTS = st.sampled_from(["abc", "4.5", "", "1e3", "--"])


@st.composite
def flag_lists(draw):
    verb = draw(st.sampled_from(("validate", "construct", *PIPELINE)))
    group, x, y = draw(PAIRS)
    if verb in PIPELINE:
        argv = [verb, "--n", str(draw(st.integers(4, 6))), "--group", group, "--x", x, "--y", y,
                "--enum-cap", str(draw(SMALL_CAPS)), "--vertex-cap", str(draw(SMALL_CAPS))]
        for fmt in draw(st.lists(st.sampled_from(["edge-list", "adjacency-text"]), max_size=2)):
            argv += ["--format", fmt]
        return argv, draw(st.booleans())
    argv = [verb,
            "--n", draw(st.one_of(st.integers(-1, 9).map(str), NOT_INTS)), "--group", group,
            "--x", draw(st.one_of(st.just(x), CYCLES)),
            "--y", draw(st.one_of(st.just(y), CYCLES))]
    for flag in ("--vertex-cap", "--enum-cap"):
        if draw(st.booleans()):
            argv += [flag, draw(st.one_of(st.integers(-2, 10**7).map(str), NOT_INTS))]
    formats = st.sampled_from(["edge-list", "adjacency-text", "graphml"])
    for fmt in draw(st.lists(formats, max_size=2)):
        argv += ["--format", fmt]
    return argv, draw(st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(flag_lists())
def test_fuzzed_flags_exit_cleanly(case):
    """Any such command line gives one JSON object on stdout and an exit code
    in 0..3, with --out or without it."""
    argv, with_out = case
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + (["--out", tmp] if with_out else []))
    assert code in (0, 1, 2, 3)
    assert isinstance(json.loads(out.getvalue()), dict)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------


def test_user_catalog_file(tmp_path, capsys):
    catalog = tmp_path / "groups.json"
    catalog.write_text(json.dumps({
        "S3": {"degree": 3, "generators": ["(1,2)", "(1,2,3)"]},
    }))
    code, out, _ = run_cli(
        ["validate", "--n", "4", "--group", "S3", "--x", "(1,2)", "--y", "(1,2,3)",
         "--catalog", str(catalog)],
        capsys,
    )
    # S3 is resolvable but not simple, so the job itself is rejected
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("simple" in p for p in payload["problems"])


def test_malformed_catalog_file_rejected(tmp_path, capsys):
    catalog = tmp_path / "groups.json"
    catalog.write_text("{not json")
    code, out, _ = run_cli(["construct", *JOB1_FLAGS, "--catalog", str(catalog)], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["rejected"] is True
    assert f"cannot read catalog file {catalog}" in payload["reason"]


def test_missing_catalog_file_rejected(tmp_path, capsys):
    catalog = tmp_path / "absent.json"
    code, out, _ = run_cli(["validate", *JOB1_FLAGS, "--catalog", str(catalog)], capsys)
    assert code == 2
    assert f"cannot read catalog file {catalog}" in json.loads(out)["reason"]


@pytest.mark.parametrize(
    "entry,fragment",
    [
        ({"degree": "five", "generators": ["(1,2,3)"]}, "'degree' must be an integer in 1..255"),
        ({"degree": True, "generators": ["(1,2,3)"]}, "'degree' must be an integer in 1..255"),
        ({"degree": 0, "generators": []}, "'degree' must be an integer in 1..255"),
        ({"degree": 300, "generators": ["(1,2,3)"]}, "'degree' must be an integer in 1..255"),
        ({"degree": 5, "generators": [12]}, "'generators' must be a list of cycle strings"),
        ({"degree": 5, "generators": "(1,2,3)"}, "'generators' must be a list of cycle strings"),
    ],
)
def test_malformed_catalog_entry_rejected(tmp_path, capsys, entry, fragment):
    catalog = tmp_path / "groups.json"
    catalog.write_text(json.dumps({"X": entry}))
    code, out, _ = run_cli(
        ["validate", "--n", "4", "--group", "X", "--x", "(1,2)", "--y", "(1,2,3)",
         "--catalog", str(catalog)],
        capsys,
    )
    assert code == 2
    assert f"catalog entry 'X': {fragment}" in json.loads(out)["reason"]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def test_suite_examples_exit_zero(tmp_path, capsys):
    code, out, _ = run_cli(["suite", "examples", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.rstrip().endswith("all checks passed")
    assert (tmp_path / "suite-examples.txt").exists()


def test_suite_regression_failure_exits_one(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"girth/n=4/A5/(1,2)(3,4)/(1,2,3,4,5)": 999}))
    code, out, _ = run_cli(
        ["suite", "small-n", "--baselines", str(base)], capsys
    )
    assert code == 1
    assert "FAIL" in out
    assert "FAILURES PRESENT" in out


@pytest.mark.parametrize("suite, write, reason", [
    ("examples", lambda p: p.write_bytes(b"\xff\xfe{}"), "cannot read baselines file"),
    ("small-n", lambda p: p.write_text("[1, 2]"), "must hold a JSON object"),
    ("examples", lambda p: p.mkdir(), "cannot read baselines file"),
], ids=["not-utf8", "json-list", "directory"])
def test_unreadable_baselines_file_is_rejected(tmp_path, capsys, suite, write, reason):
    """A baselines file that is not UTF-8, holds no JSON object or is a
    directory is a rejection naming the file, before any job runs."""
    base = tmp_path / "bad.json"
    write(base)
    code, out, err = run_cli(["suite", suite, "--baselines", str(base)], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["rejected"] is True
    assert reason in payload["reason"] and str(base) in payload["reason"]
    assert "Traceback" not in err
