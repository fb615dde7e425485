"""Build one workload's serving stack in a fresh process.

    python3 perfbench/cold.py INPUTS

loads the workload pickled at INPUTS (its data was generated by the
parent, so generating it is not timed), builds the serving stack up to
its first answer and prints one JSON line: ``ready``, the
``time.monotonic()`` of the first answer, and ``layers``, the set-up
steps the build timed.  The parent takes ``ready`` minus the moment it
started this process as one cold set-up time: interpreter start,
imports, loading the inputs and the build.
"""

import json
import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(path: str) -> int:
    with open(path, "rb") as inputs:
        workload = pickle.load(inputs)
    stack = workload.build()
    ready = time.monotonic()
    try:
        print(json.dumps({"ready": ready, "layers": workload.setup_layers}))
    finally:
        workload.close(stack)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
