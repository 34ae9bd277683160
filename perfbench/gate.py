"""The correctness gate applied to every job run.

A run passes when the process exits with the job's expected code, prints a
JSON certificate whose summary says every check passed, carries the job's
pinned facts, and is byte-identical in its deterministic part (everything but
`timings`, plus any graph exports) to the first run of the same job in this
benchmark run. Facts are pinned rather than whole-certificate digests, so a
deliberate certificate format change does not count as a failure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from jobs import Job


def core_bytes(cert: dict) -> bytes:
    """The certificate without its non-deterministic `timings` section."""
    core = {k: v for k, v in cert.items() if k != "timings"}
    return (json.dumps(core, indent=2) + "\n").encode()


def export_digest(out_dir: Optional[Path], cert: dict) -> bytes:
    """Digest of the graph exports the certificate lists, in listed order."""
    h = hashlib.sha256()
    for name in cert.get("artifacts", []):
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.digest()


class Gate:
    """Checks job runs and remembers each job's first fingerprint."""

    def __init__(self) -> None:
        self.fingerprints: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, job: Job, exit_code: int, stdout: bytes) -> Optional[dict]:
        """Gate one run; returns the certificate when it passes, else None."""
        self.attempted += 1
        problems, cert = inspect(job, exit_code, stdout)
        if cert is not None and not problems:
            fp = hashlib.sha256(core_bytes(cert)).digest()
            if job.template.formats:
                try:
                    fp += export_digest(job.out_dir, cert)
                except OSError as exc:
                    problems.append(f"export unreadable: {exc}")
            first = self.fingerprints.setdefault(job.label, fp)
            if fp != first:
                problems.append("certificate or exports differ from the first run")
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.label}: {p}" for p in problems)
            return None
        return cert


def inspect(job: Job, exit_code: int, stdout: bytes) -> tuple[list[str], Optional[dict]]:
    """Problems with one run's exit code and certificate (stateless part)."""
    problems: list[str] = []
    if exit_code != job.template.exit_code:
        problems.append(f"exit code {exit_code}, expected {job.template.exit_code}")
    try:
        cert = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"], None
    if not isinstance(cert, dict):
        return problems + ["stdout is not a JSON object"], None
    summary = cert.get("summary")
    if not isinstance(summary, dict) or summary.get("all_passed") is not True:
        problems.append("summary.all_passed is not true")
    try:
        problems.extend(job.template.facts(cert))
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"pinned fact missing: {exc}")
    return problems, cert
