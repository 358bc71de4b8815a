"""Set-up as a command-line user pays it: a fresh interpreter imports
nodalrec, then loads and validates one workload's problem.

    python3 perfbench/setup_probe.py <workload>

run.py times this whole process from the outside.  The probe runs the pass
clock's calibration kernel while it works and prints, as JSON, how long the
kernel ran in total and its typical time (kernel_s), so run.py can leave
the kernel's share out and rescale the rest to the reference speed.
"""

import json
import sys
from pathlib import Path

from clock import PassClock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

with PassClock() as clock:
    import nodalrec

    import inputs

    inputs.load(nodalrec, ROOT, sys.argv[1])

print(json.dumps({"sampled_s": clock.sampled_s, "kernel_s": clock.kernel_s}))
