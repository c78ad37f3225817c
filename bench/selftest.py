"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at a tiny size (one op per input family, no capped tail)
on a fixed seed, traced and untraced, and checks that

* every metric named in BENCHMARK.json is printed, with its unit;
* every op verifies against the reference (``correct``, no failures);
* the traced and untraced runs give the same answers;
* the same seed gives the same op list, by hash, and another seed another.

Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402

SEED = 11


def run(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("run "))[4:])
    return record, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in W.WORKLOADS:
        rounds = W.build_rounds(w, SEED)
        if W.op_list_hash(rounds) != W.op_list_hash(W.build_rounds(w, SEED)):
            problems.append(f"{w}: same seed gave a different op list")
        if W.op_list_hash(rounds) == W.op_list_hash(W.build_rounds(w, SEED + 1)):
            problems.append(f"{w}: another seed gave the same op list")
        answers = {}
        for trace in (0, 1):
            record, result = run(w, trace)
            answers[trace] = record["answers_sha256"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{w} trace={trace}: metrics {got} "
                                f"differ from BENCHMARK.json {wanted[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} ops failed: "
                                f"{record['failures']}")
            print(f"{w} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed, correct={result['correct']}")
        if answers[0] != answers[1]:
            problems.append(f"{w}: traced and untraced answers differ")
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
