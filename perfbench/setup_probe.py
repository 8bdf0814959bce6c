"""Time one cold set-up of confalg in this fresh interpreter.

    python3 -I perfbench/setup_probe.py src

Imports confalg and confalg.cli and builds the five presets once, then
prints the elapsed seconds and a machine-speed sample (calibrate.py).
run.py starts it several times per run.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import confalg  # noqa: E402,F401
import confalg.cli  # noqa: E402,F401
from confalg.presets import PRESET_NAMES, instantiate  # noqa: E402

for name in PRESET_NAMES:
    instantiate(name)
ELAPSED = time.perf_counter() - START

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calibrate import speed_sample  # noqa: E402

speed_sample()  # the first sample of a fresh interpreter runs cold
print(ELAPSED, speed_sample())
