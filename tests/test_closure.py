"""The kernel M as the normal closure of the kernel witness (`normal_closure`)
against the Schreier route (`schreier_oracle.schreier_rows`, a BFS over all
n! tops), structure by structure, and the Coxeter relations its proof rests
on."""

import dataclasses

import numpy as np
import pytest

from schreier_oracle import schreier_rows
from arccover import report
from arccover.catalog import resolve_group
from arccover.groups import PermGroup
from arccover.perm import parse_cycles
from arccover.report import JobSpec, run_job
from arccover.subdirect import RowSifter, structures_equal
from arccover.wreath import CoverJob, build_cover_group, normal_closure

A5 = ("A5", "(1,2)(3,4)", "(1,2,3,4,5)")
A5_Y2 = ("A5", "(1,2)(3,4)", "(1,5,3)")
PSL27 = ("PSL27", "(1,8)(2,7)(3,4)(5,6)", "(1,2,3,4,5,6,7)")
A7 = ("A7", "(1,2)(3,4)", "(1,2,3,4,5,6,7)")
A11 = ("A11", "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)")
# two-byte table ids; not in the catalog
PSL2_13 = ("PSL2_13", "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)", "(1,4,7,10,13,3,6,9,12,2,5,8,11)")

JOBS = [(job, n) for job in (A5, A5_Y2) for n in (4, 5, 6, 7, 8)]
JOBS += [(PSL27, 5), (PSL2_13, 4), (PSL2_13, 5), (A7, 4), (A7, 5), (A7, 6), (A11, 5)]


def cover(job, n):
    name, x, y = job
    if name == "PSL2_13":
        group = PermGroup.from_cycle_strings([PSL2_13[2], PSL2_13[1]], 14)
    else:
        group = resolve_group(name)
    return build_cover_group(CoverJob(n=n, group=group, x=parse_cycles(x, group.degree),
                                      y=parse_cycles(y, group.degree)))


def link_keys(structure):
    return [None if link is None else link.key() for link in structure.links]


@pytest.mark.parametrize("job, n", JOBS, ids=[f"{job[0]}-{job[2]}-n{n}" for job, n in JOBS])
def test_closure_structure_is_the_schreier_structure(job, n):
    """The same blocks, bases and links as the rows of every Schreier
    generator give, and the same subgroup: d alone does not fix them."""
    data = cover(job, n)
    closed = RowSifter(data.job.group, data.ctx.k)
    conjugations = normal_closure(data, closed)
    by_schreier = RowSifter(data.job.group, data.ctx.k)
    schreier_rows(data, by_schreier.add)
    got, want = closed.structure(), by_schreier.structure()
    assert got.blocks == want.blocks and np.array_equal(got.base_of, want.base_of)
    assert link_keys(got) == link_keys(want)
    assert structures_equal(got, want)
    # every row of S was sifted as s or one of the conjugates formed
    assert closed.rows_formed == conjugations + 1 and closed.rows_kept <= closed.rows_formed


@pytest.mark.parametrize("klass", [1, 2, 3, 4])
def test_changing_g_at_one_class_keeps_kernel_generators_from_passing(monkeypatch, klass):
    """g's base with its entry on one class of cycles replaced: at n = 5
    classes pair up as k and n - k, no class with itself, so g^2 = 1 fails,
    twist-identities fails, and kernel-generators, whose proof needs g^2 = 1,
    does not run."""
    real = report.build_cover_group

    def mutated(job):
        data = real(job)
        ctx, g = data.ctx, data.g
        f = g.f.copy()
        on_class = ctx.place[:, 1] == klass
        f[on_class] = ctx.entries.idx(job.y * job.y) if klass != 2 else ctx.entries.idx(job.y)
        bad = ctx.from_assignment(f, g.sigma)
        return dataclasses.replace(data, g=bad, y_gens=data.h_gens + (bad,))

    monkeypatch.setattr(report, "build_cover_group", mutated)
    cert = run_job(JobSpec(n=5, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)"), "decompose")
    twist = cert.check("twist-identities")
    assert twist["passed"] is False and twist["computed"]["g_squared_trivial"] is False
    assert cert.check("kernel-generators") is None and cert.check("block-structure") is None
