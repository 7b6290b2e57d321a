"""Run every workload untraced and traced, and print all metrics in one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--json PATH]

For each workload this prints setup_s, wall_s, peak_rss_mb and failed_frac,
then the per-layer metrics of the traced run, each with its unit and sample
count.  --json also writes the table, the environment and every sample.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"report: {workload} trace {trace} exited with {done.returncode}")
    lines = done.stdout.splitlines()
    detail = next(json.loads(line[len("# detail "):]) for line in lines if line.startswith("# detail "))
    return detail, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--json", default=None, help="also write the results here")
    args = parser.parse_args()

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    print(f"{'workload':12s} {'metric':34s} {'value':>14s} {'unit':9s} samples")
    for workload in WORKLOADS:
        plain, plain_result = run(workload, args.seed, args.seconds, 0)
        traced, traced_result = run(workload, args.seed, args.seconds, 1)
        samples = plain["samples"]
        attempted = plain_result["attempted"] + traced_result["attempted"]
        failed = plain_result["failed"] + traced_result["failed"]
        rows = [
            (name, metric["value"], metric["unit"], len(samples[name]))
            for name, metric in plain_result["metrics"].items()
        ]
        rows.append(("failed_frac", failed / attempted, "1", attempted))
        traced_count = len(traced["samples"]["traced_wall_s"])
        rows += [
            (name, metric["value"], metric["unit"], traced_count)
            for name, metric in traced_result["metrics"].items()
        ]
        for name, value, unit, count in rows:
            print(f"{workload:12s} {name:34s} {value:14.6g} {unit:9s} {count}")
        report["env"] = plain["env"]
        report["workloads"][workload] = {
            "argv": plain["argv"],
            "metrics": {name: {"value": v, "unit": u, "samples": n} for name, v, u, n in rows},
            "raw_samples": {"end_to_end": samples, "traced": traced["samples"]},
        }
    print(f"environment: {json.dumps(report['env'])}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
