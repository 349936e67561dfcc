"""Fast self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Runs each workload of BENCHMARK.json at toy size (--tiny), untraced and
traced, and asserts the output contract: the last line is one JSON object
with correct / attempted / failed / metrics, every metric BENCHMARK.json
names is printed with its unit, and every output check ran and passed.  The
two convergence checks need a phase of at least 50 steps, so they run only
at full size.  Last, it asserts that a copy of the benchmark without the
program's sources exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHECKS = {
    "checkpoint_reload.clip", "checkpoint_reload.recall",
    "rerun_bytes.clip", "rerun_bytes.recall",
    "grad_fd.clip-d", "grad_fd.clip-enc", "grad_fd.clip-gen",
    "grad_fd.recall-d", "grad_fd.recall-enc", "grad_fd.recall-gen",
    "trained_state_same_every_round", "long_video_same_every_round",
    "container_frames", "container_pixels_in_range",
    "peak_frames_within_two_clips", "shorter_chain_same_prefix",
    "fid_segments_match_independent", "diversity_in_range",
}


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, set(got) ^ set(want)
            assert all(isinstance(m["value"], float) for m in result["metrics"].values())
            checks = {line.split()[1].rstrip(":"): line.split()[2]
                      for line in lines if line.startswith("check ")}
            assert set(checks) == CHECKS, set(checks) ^ CHECKS
            assert set(checks.values()) == {"PASS"}, checks
            print(f"ok {workload} --trace {trace}: {len(got)} metrics, "
                  f"{len(checks)} checks")

    bare = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok without sources: exit", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass        # another run is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
