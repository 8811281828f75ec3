"""Run every workload over several seeds and record the result as a baseline.

    python3 perfbench/baseline.py --label NAME [--workload NAME ...] [--record FILE]

Each workload runs ten times untraced, with seeds 1 to 10, then once traced.
For every end-to-end metric this prints the median, the quartiles and the
spread (quartile distance over median) of the ten runs.  A spread above a
third of the metric's bound is marked NOT STEADY, and one above the bound
OVER BOUND; either makes the exit status 1.  With --record the summary is
appended as one entry to FILE (a JSON list).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result line and the env and params lines of one benchmark run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    info = {key: json.loads(line[len(key) + 1:]) for line in lines
            for key in ("env", "params") if line.startswith(key + " ")}
    return json.loads(lines[-1]), info


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append",
                        default=None, choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)

    entry = {"label": args.label, "run_seconds": BENCHMARK["run_seconds"],
             "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
        results = []
        for seed in SEEDS:
            result, info = run(workload, seed, 0)
            results.append(result)
        traced, _ = run(workload, SEEDS[0], 1)
        entry["env"] = info["env"]
        summary = {"params": info["params"],
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results),
                   "correct": all(r["correct"] for r in results) and traced["correct"],
                   "end_to_end": {}, "per_layer": {}}
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = metric["unit"]
            summary["end_to_end"][name] = stats
            if stats["spread"] > metric["bound"]:
                verdict = "  OVER BOUND"
            elif stats["spread"] > metric["bound"] / 3:
                verdict = "  NOT STEADY"
            else:
                verdict = ""
            ok &= not verdict
            print(f"{workload:20s} {name:12s} median {stats['median']:.6g} "
                  f"{metric['unit']:4s} spread {stats['spread']:.4f} "
                  f"(bound {metric['bound']}){verdict}")
        summary["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        ok &= summary["correct"]
        print(f"{workload:20s} correct {summary['correct']} "
              f"failed {summary['failed']} of {summary['attempted']}")
        entry["workloads"][workload] = summary
    if args.record:
        history = json.loads(args.record.read_text()) if args.record.exists() else []
        history.append(entry)
        args.record.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
