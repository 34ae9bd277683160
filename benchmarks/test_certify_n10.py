"""A5 at n = 10, the largest n whose wreath elements materialize, decomposed
through the CLI: k = 9! cycles, every block a pair {α, α^-1}, so
d = 9!/2 = 181,440. It takes about 10 s and 250 MB, so it runs with the
benchmarks, not the test suite:

    python -m pytest benchmarks/test_certify_n10.py --benchmark-disable
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    assert by_id["twist-identities"]["computed"]["intersection_order"] == 40320
