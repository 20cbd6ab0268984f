"""Set-up probe: a fresh process that imports hulldial, builds one workload's
fields, prints ``ready`` and exits.  `run.py` times it from spawn to that line.

    python3 perfbench/probe.py <workload>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hulldial  # noqa: E402,F401  (the import is part of what is timed)
from workloads import build_fields  # noqa: E402

build_fields(sys.argv[1])
sys.stdout.write("ready\n")
sys.stdout.flush()
