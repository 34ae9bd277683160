"""A5 at n = 10, the largest n whose wreath elements materialize, decomposed
through the CLI: k = 9! cycles, every block a pair {α, α^-1}, so
d = 9!/2 = 181,440. Its orders |M| = 60^d and |Y| = 60^d·10! are past the
interpreter's digit limit on str(int), so they are written through
`decimal`; their digit counts are checked against `_digit_count`. It takes
about 6 s and 250 MB, so it runs with the benchmarks, not the test suite:

    PYTHONPATH=src python -m pytest benchmarks/test_certify_n10.py --benchmark-disable
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from arccover import cosetgraph

SRC = Path(__file__).resolve().parents[1] / "src"


def test_decompose_at_n10_certifies_d():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-m", "arccover.cli", "decompose", "--n", "10", "--group", "A5",
         "--x", "(1,2)(3,4)", "--y", "(1,2,3,4,5)"],
        env=env, capture_output=True, text=True, check=False,
    )
    assert out.returncode == 0, out.stderr
    by_id = {c["id"]: c for c in json.loads(out.stdout)["checks"]}
    blocks = by_id["block-structure"]["computed"]
    assert blocks["d"] == 181440 and blocks["block_sizes"] == [[2, 181440]]
    order_m = 60**181440
    assert len(blocks["order_m"]) == cosetgraph._digit_count(order_m)
    assert blocks["order_y_digits"] == cosetgraph._digit_count(order_m * math.factorial(10))
    assert by_id["twist-identities"]["computed"]["intersection_order"] == 40320
