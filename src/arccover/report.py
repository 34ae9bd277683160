"""Job orchestration: run the full pipeline and emit a machine-checkable
certificate for every verified fact.

A certificate is a JSON document with a stable field order: job echo, check
records (id, claim, inputs, computed, passed), skip records (stage, reason),
a summary, stated verification gaps, an environment stamp, and a timings
section. Two runs of the same job with the same package version produce
byte-identical certificates once the timings section is removed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ._version import __version__
from .catalog import resolve_group
from .errors import ArccoverError, CapacityExceeded, ValidationError
from .groups import (
    ENUM_CAP_DEFAULT, VERTEX_CAP_DEFAULT, closure, decimal_string, group_order, orbit_labels,
)
from .perm import parse_cycles
from .subdirect import (
    BlockReport,
    RowSifter,
    cross_automorphism,
    inverting_automorphism,
    structures_equal,
)
from .wreath import (
    CoverGroupData,
    CoverJob,
    _k4_maps,
    build_cover_group,
    k4_tuple_data,
    kernel_witness,
    normal_closure,
    twist_tops,
)

# largest |Y| that the centralizer stage will enumerate element by element
CENTRALIZER_ENUM_LIMIT = 20_000

# graph export format -> file name suffix
EXPORT_SUFFIX = {"edge-list": "edges", "adjacency-text": "adj"}

# the job collections of `suite`, here so that the CLI parser can list them
# without loading that module
SUITE_NAMES = ("examples", "small-n", "extended")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class JobSpec:
    """One pipeline run: the construction inputs plus caps and output wiring.

    Every field is type-checked at construction, so a bad job file, flag or
    library call is rejected with ValidationError before any work starts.
    """

    n: int
    group: str
    x: str
    y: str
    vertex_cap: int = VERTEX_CAP_DEFAULT
    enum_cap: int = ENUM_CAP_DEFAULT
    catalog: Optional[str] = None
    out_dir: Optional[str] = None
    formats: tuple[str, ...] = ()
    time_budget: Optional[float] = None
    label: Optional[str] = None

    def __post_init__(self):
        for name in ("n", "vertex_cap", "enum_cap"):
            if not _is_int(getattr(self, name)):
                raise ValidationError(f"job field {name!r} must be an integer")
        for name in ("group", "x", "y"):
            if not isinstance(getattr(self, name), str):
                raise ValidationError(f"job field {name!r} must be a string")
        for name in ("catalog", "out_dir", "label"):
            if getattr(self, name) is not None and not isinstance(getattr(self, name), str):
                raise ValidationError(f"job field {name!r} must be a string")
        label = self.label
        if label is not None and (label in (".", "..") or any(c in label for c in "/\\\0")):
            raise ValidationError(f"job field 'label' must be a plain file name, got {label!r}")
        for name in ("vertex_cap", "enum_cap"):
            if getattr(self, name) < 1:
                raise ValidationError(f"job field {name!r} must be at least 1")
        budget = self.time_budget
        if budget is not None:
            if not (_is_int(budget) or isinstance(budget, float)):
                raise ValidationError("job field 'time_budget' must be a number")
            if not budget >= 0:  # also rejects NaN
                raise ValidationError("job field 'time_budget' must be at least 0")
        if not isinstance(self.formats, (list, tuple)):
            raise ValidationError("job field 'formats' must be a list of format names")
        object.__setattr__(self, "formats", tuple(self.formats))
        for fmt in self.formats:
            if not isinstance(fmt, str) or fmt not in EXPORT_SUFFIX:
                raise ValidationError(
                    f"unknown export format {fmt!r}; choose from {', '.join(EXPORT_SUFFIX)}"
                )

    def job_name(self) -> str:
        if self.label:
            return self.label
        return f"n{self.n}-{self.group}-x{self.x}-y{self.y}".replace(",", "_")

    def echo(self) -> dict:
        return {
            "n": self.n,
            "group": self.group,
            "x": self.x,
            "y": self.y,
            "vertex_cap": self.vertex_cap,
            "enum_cap": self.enum_cap,
        }

    def cover_job(self) -> CoverJob:
        """The construction inputs: T from the catalog, x and y parsed in it."""
        group = resolve_group(self.group, self.catalog)
        return CoverJob(
            n=self.n,
            group=group,
            x=parse_cycles(self.x, group.degree),
            y=parse_cycles(self.y, group.degree),
            group_name=self.group,
        )

    @classmethod
    def from_file(cls, path: str) -> "JobSpec":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read job file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError("job file must hold a JSON object")
        allowed = {
            "n", "group", "x", "y", "vertex_cap", "enum_cap",
            "catalog", "out_dir", "formats", "time_budget", "label",
        }
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ValidationError(f"unknown job file keys: {', '.join(unknown)}")
        missing = sorted({"n", "group", "x", "y"} - set(raw))
        if missing:
            raise ValidationError(f"job file lacks required keys: {', '.join(missing)}")
        return cls(**raw)


GAP_STATEMENTS = (
    "The isomorphism type of the constructed group (for instance as a direct "
    "or semidirect product) is not independently identified; the certificate "
    "covers exact orders, the block decomposition, centralizer order, and "
    "quotient invariants only.",
)


@dataclass
class Certificate:
    """Stable-ordered certificate payload with byte-level accessors."""

    payload: dict

    @property
    def ok(self) -> bool:
        return self.payload["summary"]["all_passed"]

    def check(self, check_id: str) -> Optional[dict]:
        for rec in self.payload["checks"]:
            if rec["id"] == check_id:
                return rec
        return None

    def skipped(self, stage: str) -> Optional[dict]:
        for rec in self.payload["skips"]:
            if rec["stage"] == stage:
                return rec
        return None

    def capacity_blocked(self) -> bool:
        return any(rec["kind"] == "capacity" for rec in self.payload["skips"])

    def core_bytes(self) -> bytes:
        """The deterministic portion: everything except timings."""
        core = {k: v for k, v in self.payload.items() if k != "timings"}
        return (json.dumps(core, indent=2) + "\n").encode()

    def to_bytes(self) -> bytes:
        return (json.dumps(self.payload, indent=2) + "\n").encode()

    def write(self, path: Path) -> None:
        path.write_bytes(self.to_bytes())

    def summary_line(self) -> str:
        s = self.payload["summary"]
        job = self.payload["job"]
        name = f"n={job['n']} {job['group']} x={job['x']} y={job['y']}"
        state = "pass" if s["all_passed"] else "FAIL"
        return f"{state}  {s['passed']}/{s['checks']} checks  {name}"


PHASES = ("construct", "decompose", "graph", "full")


@dataclass(frozen=True)
class Stage:
    """One certified step of the pipeline.

    The stage runs when the requested phase reaches `phase`, the job's n
    equals `only_n` (if set), and every stage named in `needs` has passed.
    `body(run)` returns (computed, passed, product); the product of a passed
    stage is what later stages read from `run.products[id]`. A body raises
    CapacityExceeded to skip the stage for capacity.
    """

    id: str
    phase: str
    needs: tuple[str, ...]
    claim: str
    inputs: Callable[["_Run"], dict]
    body: Callable[["_Run"], tuple]
    only_n: Optional[int] = None


class _Run:
    """Mutable state threaded through the pipeline stages."""

    def __init__(self, spec: JobSpec, data: CoverGroupData, started: float):
        self.spec = spec
        self.data = data
        self.n = data.ctx.n
        self.products: dict[str, object] = {}
        self.checks: list[dict] = []
        self.skips: list[dict] = []
        self.timings: dict[str, float] = {}
        self.artifacts: list[str] = []
        self.started = started

    def out_of_budget(self) -> bool:
        budget = self.spec.time_budget
        return budget is not None and time.perf_counter() - self.started > budget

    def record(self, check_id: str, claim: str, inputs: dict, computed: dict, passed: bool):
        self.checks.append(
            {
                "id": check_id,
                "claim": claim,
                "inputs": inputs,
                "computed": computed,
                "passed": bool(passed),
            }
        )

    def skip(self, stage: str, reason: str, kind: str, details: Optional[dict] = None):
        rec = {"stage": stage, "kind": kind, "reason": reason}
        if details:
            rec["details"] = details
        self.skips.append(rec)

    def run_stages(self, depth: int) -> None:
        """Run, in table order, every stage that the phase depth, n and the
        passed stages allow; failures and caps become records."""
        for st in STAGES:
            if (
                PHASES.index(st.phase) > depth
                or st.only_n not in (None, self.n)
                or not all(dep in self.products for dep in st.needs)
            ):
                continue
            if self.out_of_budget():
                self.skip(st.id, "time budget exhausted", "budget")
                continue
            t0 = time.perf_counter()
            try:
                computed, passed, product = st.body(self)
            except CapacityExceeded as exc:  # BudgetExhausted too, of kind "budget"
                self.skip(st.id, str(exc), exc.kind, exc.details)
            except (ArccoverError, AssertionError) as exc:
                self.record(st.id, st.claim, st.inputs(self), {"error": str(exc)}, False)
            else:
                self.record(st.id, st.claim, st.inputs(self), computed, passed)
                if passed:
                    self.products[st.id] = product
            self.timings[st.id] = round(time.perf_counter() - t0, 6)

    def certificate(self) -> Certificate:
        passed = sum(1 for c in self.checks if c["passed"])
        payload = {
            "format": "arccover-certificate/6",
            "version": __version__,
            "job": self.spec.echo(),
            "checks": self.checks,
            "skips": self.skips,
            "artifacts": self.artifacts,
            "summary": {
                "checks": len(self.checks),
                "passed": passed,
                "failed": len(self.checks) - passed,
                "all_passed": passed == len(self.checks),
            },
            "gaps": list(GAP_STATEMENTS),
            "environment": {
                "package_version": __version__,
                "vertex_cap": self.spec.vertex_cap,
                "enum_cap": self.spec.enum_cap,
            },
            "timings": self.timings,
        }
        return Certificate(payload)


def run_job(spec: JobSpec, phase: str = "full") -> Certificate:
    """Execute the pipeline for one job and certify the results.

    Stage order (the STAGES table): cycle-class partition, the defining
    identities of the twisted swap, the kernel witness element, the kernel M
    as the normal closure of the witness (its rows sifted into the block
    structure as they are formed), block structure (d and exact orders),
    the n=4 prediction and explicit-tuple cross-checks, coset graph
    construction (capped), 2-arc-transitivity, the quotient down to the
    complete graph, centralizer structure (capped); then exports. The graph stages import `cosetgraph`
    when they run, so a job that builds no graph never loads it.

    `phase` truncates the pipeline: "construct" stops after the witness
    checks, "decompose" after the block structure, "graph" after the graph
    stages, "full" runs everything.

    Invalid inputs raise ValidationError before any certificate is produced;
    failures after that point are recorded in the certificate instead.
    """
    if phase not in PHASES:
        raise ValidationError(f"unknown phase {phase!r}; choose from {', '.join(PHASES)}")
    if spec.formats and not spec.out_dir:
        raise ValidationError("export formats need an output directory (--out or 'out_dir')")
    started = time.perf_counter()
    job = spec.cover_job()
    job.validate()

    data = build_cover_group(job)
    run = _Run(spec, data, started)
    run.record(
        "job-valid",
        "n >= 4; x and y lie in T with |x| = 2 and |y| an odd prime; "
        "<x, y> = T; and T is nonabelian simple",
        spec.echo(),
        {
            "group_order": job.group.order(),
            "x_order": 2,
            "y_order": job.y.order(),
            "entry_mode": "table" if job.group.table() is not None else "pool",
        },
        True,
    )
    run.run_stages(PHASES.index(phase))
    graph = run.products.get("graph-build")
    if graph is not None and spec.out_dir and spec.formats:
        _write_exports(run, graph)
    return run.certificate()


# ---------------------------------------------------------------------------
# stage bodies, each (run) -> (computed, passed, product)
# ---------------------------------------------------------------------------


def _class_partition(run: _Run):
    n, data = run.n, run.data
    ctx = data.ctx
    # the positions of each class's cycles, in increasing order
    counts = np.bincount(ctx.place[:, 1], minlength=n)
    by_class = np.split(np.argsort(ctx.place[:, 1], kind="stable"), np.cumsum(counts)[:-1])
    classes = {c: positions for c, positions in enumerate(by_class) if positions.size}
    size = math.factorial(n - 2)
    sizes_ok = sorted(classes) == list(range(1, n)) and all(
        len(v) == size for v in classes.values()
    )
    partition_ok = int(counts.sum()) == math.factorial(n - 1)

    # transitive on a class of |L| elements == regular; L acts on the cycle
    # positions through its comp maps, with one orbit (label) per class
    labels = orbit_labels([ctx.comp_map(s) for s in data.l_top_gens], ctx.k)
    regular = (
        group_order(data.l_top_gens, n) == size
        and int(np.count_nonzero(labels == np.arange(ctx.k))) == len(classes)
        and all((labels[p] == labels[p[0]]).all() for p in classes.values())
    )

    reflect = ctx.comp_map(data.delta)
    reflected = all(
        np.array_equal(np.sort(reflect[classes[k]]), classes[n - k]) for k in classes
    )
    ok = sizes_ok and partition_ok and regular and reflected
    return {
        "classes": n - 1,
        "class_size": size,
        "partition": partition_ok,
        "regular": regular,
        "reflected": reflected,
    }, ok, None


def _twist_identities(run: _Run):
    data = run.data
    g2_trivial = (data.g * data.g).is_identity()
    # g commutes with (1,τ), τ in L, iff f = f[comp(τ)], which is K's test,
    # so g commutes with L iff K = L iff every generator of L passes it
    # (`twist_tops`); a K < L is not computed, so no order is claimed for it
    fixed = twist_tops(data)
    order = group_order(data.l_top_gens, run.n) if fixed else None
    ok = g2_trivial and fixed and order == math.factorial(run.n - 2)
    return {
        "g_squared_trivial": g2_trivial,
        "generators_checked": len(data.l_top_gens),
        "intersection_order": order,
        "intersection_is_fixed_subgroup": fixed,
    }, ok, None


def _kernel_witness(run: _Run):
    n, data = run.n, run.data
    ctx, job = data.ctx, data.job
    s = kernel_witness(data)
    x, y = job.x, job.y
    long_cycle = "(" + ",".join(str(i) for i in range(1, n + 1)) + ")"
    alpha = parse_cycles(long_cycle, n)
    s_alpha = ctx.entries.elem(s.f[ctx.position(alpha)])
    s_alpha_inv = ctx.entries.elem(s.f[ctx.position(alpha.inverse())])
    front_ok = s_alpha == y * y * x
    back_ok = s_alpha_inv == y.inverse() * y.inverse() * x
    pair_order = job.group.subgroup_order([s_alpha, s_alpha_inv])
    generates = pair_order == job.group.order()
    computed = {
        "top_part_trivial": True,
        "entry_at_long_cycle": s_alpha.cycle_string(),
        "entry_at_inverse_cycle": s_alpha_inv.cycle_string(),
        "front_matches_yyx": front_ok,
        "back_matches_y_inv": back_ok,
        "entry_pair_generates_order": pair_order,
    }
    ok = front_ok and back_ok and generates
    if n == 7:
        beta = parse_cycles("(1,4,2,5,3,6,7)", 7)
        trivial = bool(s.f[ctx.position(beta)] == 0)
        computed["interleaved_cycle_entry_trivial"] = trivial
        ok = ok and trivial
    return computed, ok, None


def _kernel_generators(run: _Run):
    data = run.data
    sifter = RowSifter(data.job.group, data.ctx.k, run.out_of_budget)
    conjugations = normal_closure(data, sifter, run.spec.enum_cap, run.out_of_budget)
    return {
        "conjugations": conjugations,
        "rows_kept": sifter.rows_kept,
        "decompositions": sifter.decompositions,
        "component_count": data.ctx.k,
    }, True, sifter


def _block_structure(run: _Run):
    n = run.n
    structure = run.products["kernel-generators"].structure()
    d = structure.block_count
    report = BlockReport.build(n, d)
    order_t = run.data.job.group.order()
    order_y = decimal_string(order_t, d, math.factorial(n))
    sizes = np.unique(np.bincount(structure.base_of)[structure.bases], return_counts=True)
    computed = {
        "d": d,
        "block_sizes": np.column_stack(sizes).tolist(),  # sorted [size, count] pairs
        "order_m": decimal_string(order_t, d),
        "order_y": order_y,
        "order_y_digits": len(order_y),
        "component_count": structure.k,
        "divides_component_count": report.divides,
    }
    if n == 4:
        pos_of, _ = _k4_maps()
        computed["blocks_positional"] = sorted(
            sorted(pos_of[j] + 1 for j in blk) for blk in structure.blocks
        )
    if report.lower_bound is not None:
        computed["lower_bound"] = report.lower_bound
        computed["bound_ok"] = report.bound_ok
    ok = report.divides and (report.bound_ok is not False)
    return computed, ok, structure


def _block_prediction(run: _Run):
    job = run.data.job
    phi_invert = inverting_automorphism(job.group, job.x, job.y)
    computed: dict = {"fix_x_invert_y_exists": phi_invert is not None}
    if phi_invert is None:
        predicted = 6
        computed["cross_words_exists"] = None
    else:
        phi_cross = cross_automorphism(job.group, job.x, job.y)
        computed["cross_words_exists"] = phi_cross is not None
        predicted = 1 if phi_cross is not None else 3
    d = run.products["block-structure"].block_count
    computed["predicted_d"] = predicted
    computed["computed_d"] = d
    return computed, predicted == d, None


def _tuple_generators(run: _Run):
    tuples = k4_tuple_data(run.data)  # checks that their tops are trivial
    rows = np.stack([t.f for t in (tuples.t1, tuples.t2, tuples.t3)])
    sifter = RowSifter(run.data.job.group, rows.shape[1])
    sifter.add(rows)
    alt = sifter.structure()
    same = structures_equal(alt, run.products["block-structure"])
    positional = [
        [p.cycle_string() for p in row] for row in tuples.tuples_in_positions()
    ]
    return {
        "structures_equal": same,
        "tuple_d": alt.block_count,
        "tuples_positional": positional,
    }, same, None


def _expected_vertices(run: _Run) -> int:
    """|Y|/|H| = |T|^d · n."""
    d = run.products["block-structure"].block_count
    return run.data.job.group.order() ** d * run.n


def _graph_build(run: _Run):
    from .cosetgraph import build_coset_graph, graph_girth

    expected = _expected_vertices(run)
    graph = build_coset_graph(
        run.data, run.products["block-structure"], vertex_cap=run.spec.vertex_cap
    )
    connected = graph.components == 1
    coset_count_matches = graph.order == expected and connected
    ok = coset_count_matches and graph.valency == run.n - 1
    return {
        "vertices": graph.order,
        "expected_vertices": expected,
        "valency": graph.valency,
        "connected": connected,
        "coset_count_matches": coset_count_matches,
        # coset graphs are vertex-transitive, so one BFS root gives the girth
        "girth": graph_girth(graph.adjacency, roots=(0,)),
    }, ok, graph


def _two_arc_transitive(run: _Run):
    from .cosetgraph import two_arc_transitive

    data = run.data
    result = two_arc_transitive(data.h_top_gens, data.l_top_gens, run.n)
    ok = result["two_transitive"] and result["index"] == run.n - 1
    computed = {"neighbor_count": result["index"], "two_transitive": result["two_transitive"]}
    return computed, ok, None


def _cover_quotient(run: _Run):
    from .cosetgraph import quotient_graph

    n = run.n
    graph = run.products["graph-build"]
    cert = quotient_graph(graph, graph.m_gens)
    d = run.products["block-structure"].block_count
    ok = (
        cert.quotient_is_complete
        and cert.quotient_order == n
        and cert.locally_bijective
        and cert.fibre_size == run.data.job.group.order() ** d
    )
    return {
        "quotient_order": cert.quotient_order,
        "quotient_valency": cert.quotient_valency,
        "fibre_size": cert.fibre_size,
        "locally_bijective": cert.locally_bijective,
        "complete": cert.quotient_is_complete,
    }, ok, None


def _centralizer(run: _Run):
    from .cosetgraph import centralizer_elements, graph_girth, quotient_graph

    data = run.data
    d = run.products["block-structure"].block_count
    order_y = data.job.group.order() ** d * math.factorial(run.n)
    if order_y > CENTRALIZER_ENUM_LIMIT:
        raise CapacityExceeded(
            f"group order {order_y} exceeds the element-enumeration limit "
            f"{CENTRALIZER_ENUM_LIMIT}"
        )
    graph = run.products["graph-build"]
    elements = closure(data.y_gens, data.ctx.identity_element(), cap=order_y + 1)
    cz = centralizer_elements(elements, graph.m_gens)
    computed: dict = {"group_order": order_y, "centralizer_order": len(cz)}
    try:
        cert = quotient_graph(graph, cz)
    except ValidationError as exc:
        computed["quotient"] = None
        computed["quotient_note"] = str(exc)
        return computed, True, None
    computed["quotient"] = {
        "order": cert.quotient_order,
        "valency": cert.quotient_valency,
        "girth": graph_girth(cert.quotient_adjacency),
        "fibre_size": cert.fibre_size,
        "locally_bijective": cert.locally_bijective,
    }
    return computed, True, None


def _n_input(run: _Run) -> dict:
    return {"n": run.n}


STAGES = (
    Stage(
        "class-partition", "construct", (),
        "the class sets O_1..O_(n-1) partition the (n-1)! full cycles with "
        "|O_k| = (n-2)!; the subgroup fixing 1 and 2 acts regularly on every "
        "class; conjugation by (1,2) maps O_k onto O_(n-k)",
        _n_input, _class_partition,
    ),
    Stage(
        "twist-identities", "construct", (),
        "g^2 = 1; g commutes elementwise with the embedded copy of Sym{3..n}; "
        "and H ∩ H^g equals that copy, of order (n-2)!",
        _n_input, _twist_identities,
    ),
    Stage(
        "kernel-witness", "construct", (),
        "s = (g·(2,3))^3 has trivial top part; its entries at (1,2,...,n) and "
        "its inverse cycle are y^2·x and y^-2·x; those two entries generate T; "
        "and at n = 7 the entry at (1,4,2,5,3,6,7) is trivial",
        _n_input, _kernel_witness,
    ),
    Stage(
        "kernel-generators", "decompose", ("twist-identities", "kernel-witness"),
        "the lifts g, (2,3), ..., (n-1,n) of the Coxeter generators of Sym(n) "
        "satisfy every Coxeter relation but (g·(2,3))^3 = s, so the kernel M "
        "of the projection onto the top symmetric group is the normal closure "
        "of s in Y and Y/M = Sym(n); the rows kept generate a subgroup that "
        "holds s and that every generator of Y conjugates into itself",
        _n_input, _kernel_generators,
    ),
    Stage(
        "block-structure", "decompose", ("kernel-generators",),
        "the kernel projects onto every component of T^(n-1)! and splits into "
        "d full diagonal blocks linked by verified automorphisms, so "
        "|M| = |T|^d and |Y| = |T|^d · n!",
        lambda run: {"n": run.n, "group_order": run.data.job.group.order()},
        _block_structure,
    ),
    Stage(
        "block-count-prediction", "decompose", ("block-structure",),
        "at n = 4 the block count predicted from automorphism existence "
        "(an automorphism fixing x and inverting y; one crossing the three "
        "distinguished words) equals the computed d",
        lambda run: {"group": run.data.job.group_name}, _block_prediction,
        only_n=4,
    ),
    Stage(
        "tuple-generators", "decompose", ("block-structure",),
        "the three explicit base-only products t1, t2, t3 generate the same "
        "subgroup of T^6, with the same blocks, as the normal closure of the "
        "kernel witness",
        _n_input, _tuple_generators, only_n=4,
    ),
    Stage(
        "graph-build", "graph", ("block-structure",),
        "the coset graph on the cosets of H is simple, (n-1)-regular, and "
        "connected with exactly |Y|/|H| vertices",
        lambda run: {"n": run.n, "expected_vertices": _expected_vertices(run)},
        _graph_build,
    ),
    Stage(
        "two-arc-transitive", "graph", ("twist-identities",),
        "the vertex stabilizer H acts 2-transitively on the n-1 neighboring "
        "cosets, so the constructed group acts 2-arc-transitively on the graph",
        _n_input, _two_arc_transitive,
    ),
    Stage(
        "cover-quotient", "full", ("block-structure", "graph-build"),
        "the kernel subgroup M acts with all vertex orbits of size |M| and no "
        "intra-orbit edges; the quotient is the complete graph on n vertices "
        "and the quotient map is a bijection on every neighborhood",
        _n_input, _cover_quotient,
    ),
    Stage(
        "centralizer-structure", "full", ("block-structure", "graph-build"),
        "the centralizer of the kernel subgroup M in the whole group is "
        "computed by elementwise commutation; when it acts freely with no "
        "intra-orbit edges, the graph quotient by it is recorded",
        _n_input, _centralizer,
    ),
)


def _write_exports(run: _Run, graph) -> None:
    from .cosetgraph import export_chunks

    out_dir = Path(run.spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fmt in run.spec.formats:
        name = f"{run.spec.job_name()}.{EXPORT_SUFFIX[fmt]}.txt"
        with open(out_dir / name, "wb") as fh:
            fh.writelines(export_chunks(graph.adjacency, fmt))
        run.artifacts.append(name)
