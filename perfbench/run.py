"""The simulator's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload pr_tree --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  The workload runs in its own process
(``perfbench/harness.py``) with a pinned environment and a private
``REPRO_CACHE_DIR``, so neither the host's ``REPRO_*`` settings nor a
warm ``.repro_cache`` can change what is measured.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones; the
last line of standard output is the result as one JSON object.  The
exit code is non-zero when any output or modelled digest is wrong, and
when the run could not produce a result at all.

Each run also leaves ``.perfbench_out/<workload>-s<seed>-t<trace>.json``
(result, sample counts, host and revision) and, when traced, the spans
as JSON lines beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pr_tree", "bfs_oracle")
#: A run must finish within this many seconds.
CHILD_TIMEOUT_S = 170
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: Settings that would change what the library does or where it
#: caches.  Every one is set explicitly for the workload process.
PINNED_ENV = {
    "REPRO_TRACE": "0",
    "REPRO_TUNE": "0",
    "REPRO_SANITIZE": "0",
    "REPRO_JOBS": "1",
    "REPRO_PRICING_CACHE": "0",
    "REPRO_TUNE_CACHE": "0",
    "REPRO_NATIVE": "0",
    "REPRO_FULL": "0",
    "REPRO_FLIGHT": "512",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def git_revision() -> str:
    """HEAD's commit, or ``"unknown"`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child_env(work: str) -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env.update(PINNED_ENV)
    env["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
    env["REPRO_ARTIFACTS_DIR"] = os.path.join(work, "artifacts")
    env["TMPDIR"] = os.path.join(work, "tmp")
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def run_child(args, work: str, out_json: str, spans_out: str) -> int:
    """Run the workload process; kill its whole group afterwards so no
    pool worker or helper outlives the run."""
    cmd = [
        sys.executable, "-m", "perfbench.harness",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--out", out_json, "--spans-out", spans_out,
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(work), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} timed out", file=sys.stderr)
        return -1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    for sub in ("cache", "artifacts", "tmp"):
        os.makedirs(os.path.join(work, sub))
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    out_json = os.path.join(work, "result.json")
    try:
        code = run_child(args, work, out_json, stem + ".spans.jsonl")
        if code != 0 or not os.path.isfile(out_json):
            print(f"perfbench: workload process exited {code}", file=sys.stderr)
            return code or 1
        with open(out_json) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["env"]["git_revision"] = git_revision()
    result["env"]["workload"] = args.workload
    result["env"]["seed"] = args.seed
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)

    for name, metric in result["metrics"].items():
        print(f"{args.workload:>10}  {name:<30} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload:>10}  host scale {result['samples']['host_scale']:.4f}"
          " (end-to-end timings are raw host seconds times this)")
    print(f"{args.workload:>10}  samples {json.dumps(result['samples'])}")
    for problem in result["problems"]:
        print(f"{args.workload:>10}  FAILED {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
