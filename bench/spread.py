"""Run one workload over several seeds and print each metric's median and spread.

    python3 bench/spread.py --workload repair-sandbox --seeds 1-10 [--seconds 30] [--trace 0]

The spread is the distance between the first and third quartiles of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of their
median; each end-to-end metric's spread should stay below a third of its
bound in BENCHMARK.json. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BOUNDS = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bounds = {}
    if BOUNDS.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(BOUNDS.read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed)]
        command += ["--seconds", args.seconds, "--trace", args.trace]
        child = subprocess.run(command, capture_output=True, text=True, timeout=300)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        lines = child.stdout.strip().splitlines()
        facts, result = json.loads(lines[-2])["facts"], json.loads(lines[-1])
        if not result["correct"]:
            sys.stderr.write(child.stderr)
        shown = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(
            f"seed {seed}: correct={result['correct']} failed={result['failed']}"
            f" loop_s={facts['loop_s_before']:.4g}/{facts['loop_s_after']:.4g} {shown}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        limit = f"  (bound/3 {bounds[name] / 3:.3f})" if name in bounds else ""
        print(f"{name:36s} median {median:<14.6g} spread {spread:.4f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
