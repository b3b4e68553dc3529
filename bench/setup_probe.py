"""What a fresh interpreter pays before its first longzeta operation.

Imports longzeta from the checkout's src/ and parses and validates every
code in the file named by the first argument (one code per line).  Then
it times calibration slices on its own core and prints the mean kernel
time and the time they took, so that bench/run.py can leave the slices
out of the set-up time and convert it to reference seconds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import longzeta  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    for line in fh:
        longzeta.Diagram.parse(line).check()

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402

calibration = calib.Calibration()
for _ in range(3):
    calibration.slice()
print(calibration.slowdown, calibration.spent_s)
