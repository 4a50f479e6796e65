"""The full experiment pipeline, driven through the CLI entry points.

Trains a checkpoint, scores 300 fresh cases against second price, and
writes the sorted gap curve as CSV + SVG into demos/output/.  Paths are
passed relative to the working directory, so what the demo prints does
not depend on where the repository is checked out.
"""

import os
from pathlib import Path

from myerson_airnet.cli import main

out = Path(os.path.relpath(Path(__file__).parent / "output"))
out.mkdir(exist_ok=True)
ckpt = out / "experiment.ckpt"
gaps = out / "gaps.csv"

print("== train (stock uniform [0.5, 1] market) ==")
rc = main(["train", "--seed", "1", "--out", str(ckpt)])
assert rc == 0, rc

print("\n== revenue-gap, 300 cases ==")
rc = main(["revenue-gap", "--checkpoint", str(ckpt), "--out", str(gaps), "--svg",
           "--seed", "1"])
assert rc == 0, rc

print(f"\nopen {out / 'gaps.svg'} to see the sorted gap curve;")
print("on this support the reserve never binds, so the curve should")
print("hug zero rather than show a learned advantage.")
