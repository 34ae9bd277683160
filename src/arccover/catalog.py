"""Named transformation groups, plus loading of user-supplied catalog files.

A catalog maps a name to a degree and a list of generators in cycle notation:

    {"A5": {"degree": 5, "generators": ["(1,2)(3,4)", "(1,2,3,4,5)"]}}

User files in the same JSON shape extend (and may shadow) the built-ins.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ValidationError
from .groups import PermGroup

BUILTIN_CATALOG: dict[str, dict] = {
    "A5": {"degree": 5, "generators": ["(1,2)(3,4)", "(1,2,3,4,5)"]},
    "A6": {"degree": 6, "generators": ["(1,2,3)", "(2,3,4,5,6)"]},
    "A7": {"degree": 7, "generators": ["(1,2,3)", "(1,2,3,4,5,6,7)"]},
    "A11": {"degree": 11, "generators": ["(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)"]},
    # projective special linear group of order 168 in its degree-8 action
    "PSL27": {"degree": 8, "generators": ["(1,2,3,4,5,6,7)", "(1,8)(2,7)(3,4)(5,6)"]},
}


def catalog_entries(extra_path: str | Path | None = None) -> dict[str, dict]:
    entries = {k: dict(v) for k, v in BUILTIN_CATALOG.items()}
    if extra_path is not None:
        try:
            raw = json.loads(Path(extra_path).read_text())
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read catalog file {extra_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError("catalog file must be a JSON object of named entries")
        for name, entry in raw.items():
            if not isinstance(entry, dict) or "degree" not in entry or "generators" not in entry:
                raise ValidationError(f"catalog entry {name!r} needs 'degree' and 'generators'")
            degree, gens = entry["degree"], entry["generators"]
            # permutation keys hold one byte per point
            if isinstance(degree, bool) or not isinstance(degree, int) or not 1 <= degree <= 255:
                raise ValidationError(
                    f"catalog entry {name!r}: 'degree' must be an integer in 1..255"
                )
            if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
                raise ValidationError(
                    f"catalog entry {name!r}: 'generators' must be a list of cycle strings"
                )
            entries[name] = entry
    return entries


def resolve_group(name: str, extra_path: str | Path | None = None) -> PermGroup:
    entries = catalog_entries(extra_path)
    if name not in entries:
        known = ", ".join(sorted(entries))
        raise ValidationError(f"unknown group {name!r}; known: {known}")
    entry = entries[name]
    return PermGroup.from_cycle_strings(entry["generators"], entry["degree"])
