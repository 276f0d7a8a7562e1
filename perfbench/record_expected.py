"""Rewrite ``expected.json`` from the latest traced seed-0 runs.

Only for a change that alters the modelled results on purpose:

    for w in pr_tree bfs_oracle; do
        python3 perfbench/run.py --workload $w --seed 0 --trace 1
    done
    python3 perfbench/record_expected.py

(The runs fail against the old digests; their result files still
carry the new ones.)  Say in the change's notes why the digests moved.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")
WORKLOADS = ("pr_tree", "bfs_oracle")


def main() -> int:
    expected = {}
    for workload in WORKLOADS:
        path = os.path.join(OUT_DIR, f"{workload}-s0-t1.json")
        if not os.path.isfile(path):
            print(f"missing {path}; run the traced seed-0 runs first",
                  file=sys.stderr)
            return 1
        with open(path) as fh:
            digests = json.load(fh)["digests"]
        expected.update(digests)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
