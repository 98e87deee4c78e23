"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is what every ``loader-rl`` invocation pays before it works:
importing the package, parsing the run config and, when a checkpoint
is given, reading it.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG [CHECKPOINT]
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import loader_rl  # noqa: E402

loader_rl.load_run_config(sys.argv[2])
if len(sys.argv) > 3:
    loader_rl.read_checkpoint(sys.argv[3])
print(repr(time.perf_counter() - t0))
