"""2-arc-transitive covers of complete graphs K_n whose kernels are powers
of a nonabelian simple group: construction, decomposition, graphs, and
machine-checkable certificates."""

from ._version import __version__
from .catalog import resolve_group
from .errors import ArccoverError, CapacityExceeded, ValidationError
from .groups import StabilizerChain, closure, group_order
from .perm import Permutation, parse_cycles
from .report import Certificate, JobSpec, run_job
from .wreath import CoverJob, WreathContext, build_cover_group

__all__ = [
    "__version__",
    "ArccoverError",
    "CapacityExceeded",
    "Certificate",
    "CoverJob",
    "JobSpec",
    "Permutation",
    "StabilizerChain",
    "ValidationError",
    "WreathContext",
    "build_coset_graph",
    "build_cover_group",
    "closure",
    "group_order",
    "parse_cycles",
    "quotient_graph",
    "resolve_group",
    "run_job",
    "run_suite",
]


def __getattr__(name: str):
    """`build_coset_graph` and `quotient_graph`, and `run_suite`, imported on
    first use, so that a job that builds no graph never loads `cosetgraph`
    and one that runs no suite never loads `suite`."""
    if name in ("build_coset_graph", "quotient_graph"):
        from . import cosetgraph

        return getattr(cosetgraph, name)
    if name == "run_suite":
        from . import suite

        return suite.run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
