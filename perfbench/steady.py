"""Run the benchmark over several seeds and report, per workload and
end-to-end metric, the median, the quartiles and the quartile spread
((Q3 - Q1) / median) against the metric's bound in BENCHMARK.json.  It
also reports the unscaled wall-time throughput that each run prints in
its ``# wall time`` line, and the host-speed scale.

    python3 perfbench/steady.py --workloads kappa_srm,single_link --seeds 1-10

Runs are sequential.  Raw results go to .perfbench/steady.json (or --out).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WALL = re.compile(r"# wall time: (\S+) items/s .*host speed scale (\S+)")


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default="steady.json", help="file name under .perfbench/")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, correct={result['correct']}")
                status = 1
            wall = [float(x) for x in WALL.search(proc.stdout).groups()]
            result["metrics"].update({
                name: {"value": value, "unit": unit} for name, value, unit in zip(
                    ("wall_trials_per_s", "host_scale"), wall, ("1/s", ""))})
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        raw[workload] = runs
        print(f"\n{workload}: {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in [*bounds, "wall_trials_per_s", "host_scale"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"{workload}: {name:17s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
        print()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", args.out), "w", encoding="utf-8") as handle:
        json.dump(raw, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
