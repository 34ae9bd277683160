"""Workloads, the seeded job generator and the pinned facts of every job.

A workload is a list of jobs run one after another, each in its own
`arccover` process. The program only ever sees the job files (and, for the
cover workload, a catalog file) that `write_job_files` generates.

`--seed s` conjugates each job's pair (x, y) by an element c of T, built as a
seeded word in generators of T: x' = c^-1 x c, y' = c^-1 y c. Conjugation by
an element of T is an automorphism of T, so <x', y'> = T, the orders of x and
y, the block count d, the group orders and the graphs (up to isomorphism)
are all unchanged; every pinned fact below holds for every seed. Seed 0 is
the identity and gives the published pairs.

Permutations here are the benchmark's own: tuples of 1-based images, composed
left to right (i^(pq) = (i^p)^q), as in arccover.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# Generators of each T used below. PSL2_13 is PSL(2,13) on the projective
# line: z -> z+1 and z -> -1/z, with points 0..12 as 1..13 and infinity as 14.
GROUPS: dict[str, dict] = {
    "A5": {"degree": 5, "generators": ["(1,2)(3,4)", "(1,2,3,4,5)"]},
    "A7": {"degree": 7, "generators": ["(1,2,3)", "(1,2,3,4,5,6,7)"]},
    "A11": {"degree": 11, "generators": ["(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)"]},
    "PSL27": {"degree": 8, "generators": ["(1,2,3,4,5,6,7)", "(1,8)(2,7)(3,4)(5,6)"]},
    "PSL2_13": {
        "degree": 14,
        "generators": ["(1,2,3,4,5,6,7,8,9,10,11,12,13)", "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)"],
    },
}

# groups the program does not have built in; written to a catalog file
EXTRA_CATALOG = ("PSL2_13",)

_CYCLE = re.compile(r"\(([^()]*)\)")


def parse(text: str, degree: int) -> tuple[int, ...]:
    images = list(range(1, degree + 1))
    for body in _CYCLE.findall(text):
        pts = [int(t) for t in body.split(",")]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return tuple(images)


def mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[i - 1] for i in p)


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p, start=1):
        out[j - 1] = i
    return tuple(out)


def conjugate(p: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
    return mul(mul(inverse(c), p), c)


def cycle_string(p: tuple[int, ...]) -> str:
    seen, parts = set(), []
    for start in range(1, len(p) + 1):
        if start in seen or p[start - 1] == start:
            continue
        cyc, i = [], start
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = p[i - 1]
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def conjugator(group: str, seed: int, label: str) -> tuple[int, ...]:
    """A seeded word in the generators of T (and their inverses); seed 0 is 1.

    Any other seed gives a word that is not the identity, so the pair moves
    (T has trivial centre).
    """
    spec = GROUPS[group]
    deg = spec["degree"]
    identity = c = tuple(range(1, deg + 1))
    if seed == 0:
        return c
    gens = [parse(g, deg) for g in spec["generators"]]
    letters = gens + [inverse(g) for g in gens]
    rng = random.Random(f"{seed}/{label}")
    length = rng.randint(8, 16)
    while length > 0 or c == identity:
        c = mul(c, rng.choice(letters))
        length -= 1
    return c


def seeded_pair(group: str, x: str, y: str, seed: int, label: str) -> tuple[str, str]:
    deg = GROUPS[group]["degree"]
    c = conjugator(group, seed, label)
    return (
        cycle_string(conjugate(parse(x, deg), c)),
        cycle_string(conjugate(parse(y, deg), c)),
    )


# ---------------------------------------------------------------------------
# pinned facts: computed values every correct certificate must carry
# ---------------------------------------------------------------------------


def _computed(cert: dict, check_id: str) -> dict:
    for rec in cert.get("checks", []):
        if rec.get("id") == check_id:
            return rec.get("computed", {})
    raise KeyError(f"no {check_id!r} check")


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


def _facts_cover(cert: dict) -> list[str]:
    out: list[str] = []
    _expect(out, "d", _computed(cert, "block-structure").get("d"), 1)
    graph = _computed(cert, "graph-build")
    _expect(out, "vertices", graph.get("vertices"), 4368)
    _expect(out, "girth", graph.get("girth"), 15)
    quo = _computed(cert, "cover-quotient")
    _expect(out, "quotient order", quo.get("quotient_order"), 4)
    _expect(out, "quotient complete", quo.get("complete"), True)
    _expect(out, "quotient locally bijective", quo.get("locally_bijective"), True)
    _expect(out, "fibre size", quo.get("fibre_size"), 1092)
    skip_kinds = {s.get("stage"): s.get("kind") for s in cert.get("skips", [])}
    _expect(out, "centralizer skip", skip_kinds.get("centralizer-structure"), "capacity")
    return out


def _facts_n7(cert: dict) -> list[str]:
    out: list[str] = []
    blocks = _computed(cert, "block-structure")
    _expect(out, "d", blocks.get("d"), 360)
    _expect(out, "n>=7 bound satisfied", blocks.get("bound_ok"), True)
    return out


def _facts_example1(cert: dict) -> list[str]:
    out: list[str] = []
    _expect(out, "d", _computed(cert, "block-structure").get("d"), 1)
    graph = _computed(cert, "graph-build")
    _expect(out, "vertices", graph.get("vertices"), 240)
    _expect(out, "girth", graph.get("girth"), 9)
    cz = _computed(cert, "centralizer-structure")
    _expect(out, "centralizer order", cz.get("centralizer_order"), 24)
    quo = cz.get("quotient") or {}
    petersen = (quo.get("order"), quo.get("valency"), quo.get("girth"))
    _expect(out, "centralizer quotient (order, valency, girth)", petersen, (10, 3, 5))
    return out


def _facts_a11(cert: dict) -> list[str]:
    out: list[str] = []
    blocks = _computed(cert, "block-structure")
    _expect(out, "d", blocks.get("d"), 6)
    _expect(out, "digits of order_y", len(str(blocks.get("order_y", ""))), 46)
    return out


def _facts_d3(cert: dict) -> list[str]:
    out: list[str] = []
    _expect(out, "d", _computed(cert, "block-structure").get("d"), 3)
    return out


@dataclass(frozen=True)
class JobTemplate:
    label: str
    verb: str
    n: int
    group: str
    x: str
    y: str
    exit_code: int
    facts: Callable[[dict], list[str]]
    formats: tuple[str, ...] = ()


# The cover job stands in for the 864000-vertex n=4 A5 d=3 build, which takes
# about 100 s per run and cannot fit the benchmark's time budget. A graph has
# 4|T|^d vertices at n=4, so only d=1 gives sizes in between. PSL(2,13) with
# d=1 builds 4 * 1092 = 4368 vertices from k=6 table-mode products, as the
# large build does; |Y| = 26208 > 20000, so the centralizer is capacity-
# skipped and the job exits 3, also as the large build does. Building the
# table costs about |T|^2 against |T| for the graph, so a larger T that still
# fits a table (PSL(2,17)) would shift the job further towards set-up.
WORKLOADS: dict[str, tuple[JobTemplate, ...]] = {
    "cover-k4": (
        JobTemplate("cover", "quotient", 4, "PSL2_13",
                    "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)",
                    "(1,4,7,10,13,3,6,9,12,2,5,8,11)",
                    exit_code=3, facts=_facts_cover,
                    formats=("edge-list", "adjacency-text")),
    ),
    "schreier-n7": (
        JobTemplate("n7", "decompose", 7, "A5", "(1,2)(3,4)", "(1,2,3,4,5)",
                    exit_code=0, facts=_facts_n7),
    ),
    "catalog-mix": (
        JobTemplate("example-1", "quotient", 4, "A5", "(1,2)(3,4)", "(1,2,3,4,5)",
                    exit_code=0, facts=_facts_example1),
        JobTemplate("example-3", "decompose", 4, "A11", "(1,2)(3,6)",
                    "(1,2,3,4,5,6,7,8,9,10,11)", exit_code=0, facts=_facts_a11),
        JobTemplate("a7", "decompose", 4, "A7", "(1,2)(3,4)", "(1,2,3,4,5,6,7)",
                    exit_code=0, facts=_facts_d3),
        JobTemplate("psl27", "decompose", 4, "PSL27", "(1,8)(2,7)(3,4)(5,6)",
                    "(1,2,3,4,5,6,7)", exit_code=0, facts=_facts_d3),
    ),
}


@dataclass
class Job:
    template: JobTemplate
    job_file: Path
    out_dir: Optional[Path] = None
    spec: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.template.label

    def cli_args(self) -> list[str]:
        return [self.template.verb, "--job", str(self.job_file)]


def write_job_files(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """Generate the workload's job files (and catalog) under `work_dir`."""
    catalog = work_dir / "catalog.json"
    catalog.write_text(json.dumps({name: GROUPS[name] for name in EXTRA_CATALOG}))
    jobs = []
    for t in WORKLOADS[workload]:
        x, y = seeded_pair(t.group, t.x, t.y, seed, t.label)
        spec: dict = {"n": t.n, "group": t.group, "x": x, "y": y, "label": t.label}
        if t.group in EXTRA_CATALOG:
            spec["catalog"] = str(catalog)
        out_dir = None
        if t.formats:
            out_dir = work_dir / f"out-{t.label}"
            spec["out_dir"] = str(out_dir)
            spec["formats"] = list(t.formats)
        path = work_dir / f"job-{t.label}.json"
        path.write_text(json.dumps(spec))
        jobs.append(Job(t, path, out_dir, spec))
    return jobs
