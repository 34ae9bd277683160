"""Named job collections with frozen regression baselines.

Only the `suite` verb and `arccover.run_suite` load this module, so a
single CLI job never builds the suites' job specs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import ValidationError
from .groups import VERTEX_CAP_DEFAULT
from .report import SUITE_NAMES, Certificate, JobSpec, run_job

_EXAMPLE_JOBS = (
    JobSpec(n=4, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)",
            vertex_cap=10_000, label="example-1"),
    JobSpec(n=4, group="A5", x="(1,2)(3,4)", y="(1,5,3)",
            vertex_cap=10_000, label="example-2"),
    JobSpec(n=4, group="A11", x="(1,2)(3,6)", y="(1,2,3,4,5,6,7,8,9,10,11)",
            vertex_cap=10_000, label="example-3"),
)

_SMALL_N_JOBS = tuple(
    JobSpec(n=n, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)",
            vertex_cap=10_000, label=f"small-n{n}")
    for n in (4, 5, 6, 7)
)

_EXTENDED_JOBS = (
    JobSpec(n=4, group="A5", x="(1,2)(3,4)", y="(1,5,3)",
            vertex_cap=VERTEX_CAP_DEFAULT, label="extended-build"),
)

# regression keys -> (job label, certificate lookup) recorded by suites
_REGRESSION_SOURCES = {
    "d/n=7/A5/(1,2)(3,4)/(1,2,3,4,5)": ("small-n7", ("block-structure", "d")),
    "girth/n=4/A5/(1,2)(3,4)/(1,2,3,4,5)": ("small-n4", ("graph-build", "girth")),
    "girth/n=4/A5/(1,2)(3,4)/(1,5,3)": ("extended-build", ("graph-build", "girth")),
}


def _suite_specs(name: str) -> tuple[JobSpec, ...]:
    if name == "examples":
        return _EXAMPLE_JOBS
    if name == "small-n":
        return _SMALL_N_JOBS
    if name == "extended":
        return _EXAMPLE_JOBS + _SMALL_N_JOBS + _EXTENDED_JOBS
    raise ValidationError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")


def load_baselines(path: Optional[str] = None) -> dict:
    """Frozen regression values: the packaged defaults or a user file."""
    if path is None:
        text = resources.files("arccover").joinpath("baselines.json").read_text()
        return json.loads(text)
    p = Path(path)
    if not p.exists():
        return {}
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"cannot parse baselines file {path}: {exc}") from exc


@dataclass
class SuiteResult:
    suite: str
    certificates: list[Certificate]
    regressions: list[dict]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.certificates) and all(
            r["passed"] for r in self.regressions
        )

    def summary_table(self) -> str:
        lines = [f"suite: {self.suite}"]
        for cert in self.certificates:
            lines.append("  " + cert.summary_line())
        for reg in self.regressions:
            state = "pass" if reg["passed"] else "FAIL"
            note = "frozen" if reg.get("frozen") else f"baseline {reg['baseline']}"
            lines.append(f"  {state}  regression {reg['key']} = {reg['computed']} ({note})")
        lines.append(("all checks passed" if self.ok else "FAILURES PRESENT"))
        return "\n".join(lines) + "\n"


def run_suite(
    name: str,
    out_dir: Optional[str] = None,
    catalog: Optional[str] = None,
    parallel: bool = False,
    baselines_path: Optional[str] = None,
) -> SuiteResult:
    """Run a named job collection and compare frozen regression values.

    A regression key absent from the baselines is frozen at the computed
    value (and written back when a user baselines path is given); a present
    key must match exactly.
    """
    specs = [
        replace(s, out_dir=out_dir, catalog=catalog) for s in _suite_specs(name)
    ]
    if parallel and len(specs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(4, len(specs))) as pool:
            certificates = list(pool.map(run_job, specs))
    else:
        certificates = [run_job(s) for s in specs]

    by_label = {s.label: c for s, c in zip(specs, certificates)}
    baselines = load_baselines(baselines_path)
    regressions = []
    dirty = False
    for key, (label, (check_id, field_name)) in _REGRESSION_SOURCES.items():
        cert = by_label.get(label)
        if cert is None:
            continue
        rec = cert.check(check_id)
        if rec is None or field_name not in rec["computed"]:
            continue
        computed = rec["computed"][field_name]
        if key in baselines:
            regressions.append(
                {
                    "key": key,
                    "computed": computed,
                    "baseline": baselines[key],
                    "passed": computed == baselines[key],
                }
            )
        else:
            baselines[key] = computed
            dirty = True
            regressions.append(
                {"key": key, "computed": computed, "baseline": None,
                 "passed": True, "frozen": True}
            )
    if dirty and baselines_path is not None:
        Path(baselines_path).write_text(json.dumps(baselines, indent=2) + "\n")

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for spec, cert in zip(specs, certificates):
            cert.write(out / f"{spec.label}.json")
        (out / f"suite-{name}.txt").write_text(
            SuiteResult(name, certificates, regressions).summary_table()
        )
    return SuiteResult(name, certificates, regressions)
