"""Times one set-up of a workload in a fresh interpreter: imports, fixture
emission, input generation and compiler construction.  Prints the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED SCRATCH_DIR
"""

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here.parent / "tests")]
name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.loads((here / "workloads.json").read_text())["workloads"][name]
fixture_dir = tempfile.mkdtemp(prefix=f"probe-{name}-", dir=scratch)
try:
    t0 = time.perf_counter()
    import workloads

    workloads.build(name, spec, seed, fixture_dir)
    print(time.perf_counter() - t0)
finally:
    shutil.rmtree(fixture_dir, ignore_errors=True)
