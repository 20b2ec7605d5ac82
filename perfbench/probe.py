"""Set-up time of a workload, measured in a fresh interpreter.

    python3 perfbench/probe.py --workload W --seed N

Times importing the package through its command-line module (as
``finslerlab run`` does), loading and validating the workload's manifests,
building their metrics and building the jet contexts.  Prints one JSON
object on standard output.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import finslerlab.cli  # noqa: F401  (the import a user of the CLI pays)
    import workloads

    docs = workloads.input_sets(args.workload, args.seed, ROOT)[0]
    workloads.set_up(docs)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
