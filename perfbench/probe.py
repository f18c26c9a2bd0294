"""Set-up probe: time the ``replay`` set-up in a fresh interpreter.

``python3 perfbench/probe.py`` imports the program, does the replay
warm-up and prints the raw seconds it took.  ``run.py`` launches it a
few times beside its own set-up so ``setup_s`` is a median.
"""

from __future__ import annotations

import sys
import time

START = time.perf_counter()

if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.common import load_program

    load_program()
    from perfbench import replay

    replay.warm_up()
    print(f"{time.perf_counter() - START:.6f}")
