"""One cold measurement in a fresh process.

Usage: python3 perfbench/cold_probe.py WORKLOAD SEED [OUT_DIR]

Imports hyperlab from the checkout's src/ and parses the workload config,
then prints the package path and the system-wide monotonic clock, which the
parent subtracts from the clock it read just before starting this process.
Given OUT_DIR, it then runs the first pass of this process into OUT_DIR and
prints the pass's seconds and the runner's exit status.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hyperlab.config  # noqa: E402
from workloads import config_doc  # noqa: E402

doc = config_doc(sys.argv[1], int(sys.argv[2]))
hyperlab.config.config_from_dict(doc)
done = time.clock_gettime(time.CLOCK_MONOTONIC)
print(hyperlab.__file__)
print(repr(done))
if len(sys.argv) > 3:
    from run import timed_pass

    took, status = timed_pass(hyperlab, doc, Path(sys.argv[3]))
    print(repr(took))
    print(status)
