"""Entry point of the benchmark; see perfbench/README.md.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload steady-play --seed 1 --seconds 12 --trace 0
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no program to measure: {SRC}/repro is missing")
    sys.path[:0] = [SRC, HERE]
    from calbench.main import main

    sys.exit(main())
