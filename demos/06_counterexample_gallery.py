"""The counterexample gallery, replayed end to end.

Four boundary markers of the theory, each showing that dropping one
hypothesis breaks one conclusion:

1. componentwise subadditivity does not imply joint subadditivity;
2. per-line boundedness does not imply boundedness on a box;
3. mixing superadditive and subadditive axes destroys the limit, and
   the two iterated orders land at 0 and +inf;
4. lifting a subadditive integer function to finite sets by cardinality
   need not be union-subadditive, and translating a subadditive
   function can break subadditivity.

This runs `fekete-lab counterexamples` and prints the numbers behind each
verdict from its counterexamples.json.
"""

import json
import tempfile
from pathlib import Path

from fekete_lab.cli import main

NUMBERS = ("joint_margin", "max_diagonal_value", "order_1_2", "order_2_1",
           "simultaneous_status", "union_margin", "shift_margin", "unshifted_clean")

with tempfile.TemporaryDirectory() as out:
    code = main(["counterexamples", "--out", out, "--no-timestamp"])
    results = json.loads((Path(out) / "counterexamples.json").read_text())["results"]

print()
for r in results:
    print(f"{r['name']}:")
    for key in NUMBERS:
        if key in r:
            print(f"   {key} = {r[key]}")
raise SystemExit(code)
