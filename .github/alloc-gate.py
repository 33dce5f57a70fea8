#!/usr/bin/env python3
"""Allocation gate. Usage, from inside the checkout: python3 .github/alloc-gate.py BASE-REV

Runs each BENCHMARK.json workload (bash ksabench/run.sh --workload W --seed 1 --seconds 5 --trace 0)
in a git worktree of BASE-REV and in this checkout. Fails when a run is not correct or has a failed
op, or when this checkout's alloc_kb_per_op exceeds the base's by more than that metric's bound."""
import json, os, subprocess, sys, tempfile


def alloc(root, w):
    run = ["bash", "ksabench/run.sh", "--workload", w, "--seed", "1", "--seconds", "5", "--trace", "0"]
    res = json.loads(subprocess.check_output(run, cwd=root, text=True).splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{w} in {root}: correct={res['correct']}, {res['failed']} of {res['attempted']} ops failed")
    return res["metrics"]["alloc_kb_per_op"]["value"]


if len(sys.argv) != 2:
    sys.exit(__doc__)
head = subprocess.check_output(["git", "rev-parse", "--show-toplevel"], text=True).strip()
contract = json.load(open(os.path.join(head, "BENCHMARK.json")))
limit = 1 + next(m["bound"] for m in contract["end_to_end"] if m["name"] == "alloc_kb_per_op")
failed = []
with tempfile.TemporaryDirectory() as tmp:
    base = os.path.join(tmp, "base")
    subprocess.run(["git", "-C", head, "worktree", "add", "--detach", "--quiet", base, sys.argv[1]], check=True)
    try:
        for w in [w["name"] for w in contract["workloads"]]:
            b, h = alloc(base, w), alloc(head, w)
            print(f"{w}: base {b:.1f} KiB/op, head {h:.1f} KiB/op, ratio {h / b:.3f} (limit {limit:.2f})", flush=True)
            if h > b * limit:
                failed.append(w)
    finally:
        subprocess.run(["git", "-C", head, "worktree", "remove", "--force", base])
if failed:
    sys.exit("alloc gate failed: " + ", ".join(failed))
print("alloc gate passed")
