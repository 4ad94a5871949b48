"""Fresh-process steps of a benchmark run.

``setup`` generates and writes one workload's inputs and prints, as JSON,
how long that took including the import of aglkit; it then saves the
generated labels and predictions for the output check. ``estimate`` runs
one ``aglkit estimate`` so that the parent can read the peak memory of a
process that did nothing else.

    python3 perfbench/child.py setup --spec JSON --seed N --out DIR --arrays FILE
    python3 perfbench/child.py estimate ARGS...
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def setup(argv):
    import argparse
    parser = argparse.ArgumentParser(prog="child.py setup")
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--arrays", required=True)
    args = parser.parse_args(argv)
    import aglkit.cli  # noqa: F401  (the import is part of set-up time)
    import numpy as np

    from workloads import Workload, write_inputs
    manifest, arrays, write_ensemble_s = write_inputs(Workload(**json.loads(args.spec)),
                                                      args.seed, args.out)
    setup_s = time.perf_counter() - START
    np.savez(args.arrays, **arrays)
    print(json.dumps({"setup_s": setup_s, "write_ensemble_s": write_ensemble_s,
                      "manifest": manifest}))
    return 0


def estimate(argv):
    from aglkit.cli import main
    return main(argv)


if __name__ == "__main__":
    command, rest = sys.argv[1], sys.argv[2:]
    sys.exit(setup(rest) if command == "setup" else estimate(rest))
