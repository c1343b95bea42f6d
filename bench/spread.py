#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the benchmark's driver takes it.

Runs BENCHMARK.json's command ten times per workload, each time with another
seed, and prints for each end-to-end metric the distance between the first and
third quartile of its ten values as a share of their median, against the
metric's bound. Run it from the repository root, on an otherwise idle machine:

    python3 bench/spread.py [first_seed] [out.json]
"""
import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    spec = json.load(open("BENCHMARK.json"))
    rows, ok = [], True
    for w in (w["name"] for w in spec["workloads"]):
        values, attempted = {m["name"]: [] for m in spec["end_to_end"]}, []
        for seed in range(first_seed, first_seed + RUNS):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
            attempted.append(res["attempted"])
            for name, vs in values.items():
                vs.append(res["metrics"][name]["value"])
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"], "values": vs})
            within = spread <= m["bound"] or m["name"] == "setup_s"  # set-up's spread is not held to its bound
            ok = ok and within
            print(f"{w:13s} {m['name']:13s} median {median:12.4f} {m['unit']:4s} spread {100 * spread:5.1f}%"
                  f" bound {100 * m['bound']:3.0f}%{'' if within else '  EXCEEDS'}", flush=True)
        rows.append({"workload": w, "metric": "attempted", "unit": "count", "values": attempted})
    if len(sys.argv) > 2:
        with open(sys.argv[2], "w") as f:
            json.dump({"first_seed": first_seed, "runs": RUNS, "run_seconds": spec["run_seconds"], "rows": rows}, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
