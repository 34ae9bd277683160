"""`benchmarks/identity.py` on example-1, with one checkout as both sides:

    python -m pytest benchmarks/test_identity.py --benchmark-disable
"""

from pathlib import Path

import identity

ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_1 = {"id": "example-1",
             "spec": {"n": 4, "group": "A5", "x": "(1,2)(3,4)", "y": "(1,2,3,4,5)"}}


def test_identity_of_example1_against_itself(capsys):
    """The certificate and both exports hash alike on the two sides, and
    the comparison marks an item that differs or that one side lacks."""
    assert identity.check(ROOT, ROOT, [EXAMPLE_1]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith(("same", "DIFF"))]
    assert [(row[0], row[2]) for row in rows] == [
        ("same", "core"),
        ("same", "n4-A5-x(1_2)(3_4)-y(1_2_3_4_5).adj.txt"),
        ("same", "n4-A5-x(1_2)(3_4)-y(1_2_3_4_5).edges.txt"),
    ]
    assert all(len(row[4]) == 64 and row[4] == row[6] for row in rows)
    assert out.splitlines()[-1] == "1 jobs, 3 items, 0 differ"

    parent = {"a": {"core": "1", "adj": "2"}, "b": {"core": "3"}}
    change = {"a": {"core": "1", "adj": "9"}, "c": {"core": "3"}}
    assert identity.compare(parent, change) == [
        ("a", "core", "1", "1", True),
        ("a", "adj", "2", "9", False),
        ("b", "core", "3", "-", False),
        ("c", "core", "-", "3", False),
    ]
