"""Set-up of a workload in a fresh interpreter: import the package, parse the
configuration of the workload's first product run and build its state.

run.py times this script from outside; it prints nothing.
Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import boxcarpets  # noqa: E402

from workloads import build  # noqa: E402

first = build(sys.argv[1], int(sys.argv[2]))[0]
config = boxcarpets.apply_overrides(boxcarpets.parse_config(first.config_text), **first.overrides)
boxcarpets.build_state(config)
