"""Time one set-up of a benchmark workload in a fresh interpreter.

Usage: ``python3 setup_time.py MODULE WORKLOAD SEED OUT_DIR``

Imports MODULE (``vnm``, or ``vnm.cli`` for a workload that runs the CLI),
then builds WORKLOAD's fixed inputs for SEED, and prints the seconds the two
steps took together. The import is timed before any harness module is
loaded, so every standard-library module vnm pulls in counts; loading the
harness's own ``workloads`` module in between is left out of the figure.
"""

import sys
from time import perf_counter

start = perf_counter()
import os  # noqa: E402  (loaded with the interpreter, so free)

HERE = os.path.dirname(os.path.abspath(__file__))
module, name, seed, out_dir = sys.argv[1:5]
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
__import__(module)
imported = perf_counter()

from workloads import WORKLOADS  # noqa: E402

built = perf_counter()
WORKLOADS[name](int(seed), out_dir).setup()
print(imported - start + perf_counter() - built)
