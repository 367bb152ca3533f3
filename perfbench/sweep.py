"""Repeat benchmark runs over seeds and summarise them.

    python3 perfbench/sweep.py stats [--traced-seed N] [--heldout N] [--out F]
    python3 perfbench/sweep.py counters

`stats` runs BENCHMARK.json's command untraced on each of its workloads with
seeds 1 to 10, one run at a time, and prints for every metric the median,
the quartiles and the spread (quartile distance over median).  An
end-to-end metric whose spread is not below a third of its bound is marked
UNSTEADY.  --traced-seed adds
a traced run and --heldout a run on a seed kept out of development, per
workload.  --out writes the runs and the summary as JSON, e.g. a baseline
to diff a later change against.

`counters` makes two traced runs of seed 7 per workload and fails unless
the exact counters (tracing.EXACT) agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
SEEDS = range(1, 11)
COUNTER_SEED = 7


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload, seed, trace) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2])["env"]
    if proc.stderr.strip():
        result["stderr"] = proc.stderr
    return result


def summarise(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def cmd_stats(args, spec) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"spec": spec, "seeds": list(SEEDS), "workloads": {}}
    unsteady = 0
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            r = run_once(spec, wl, seed, False)
            runs.append(r)
            print(f"{wl} seed {seed}: correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                      if k in bounds), flush=True)
        summary = {k: summarise([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        report["workloads"][wl] = {"summary": summary, "runs": runs}
        checked = list(runs)
        extra = {"traced": (args.traced_seed, True), "heldout": (args.heldout, False)}
        for key, (seed, trace) in extra.items():
            if seed is not None:
                r = report["workloads"][wl][key] = run_once(spec, wl, seed, trace)
                checked.append(r)
                print(f"{wl} {key} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
        for k, s in summary.items():
            mark = ""
            if k in bounds and s["spread"] >= bounds[k] / 3:
                mark, unsteady = "  UNSTEADY", unsteady + 1
            print(f"  {wl:18s} {k:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{mark}")
        failed = sum(r["failed"] for r in checked)
        if failed or not all(r["correct"] for r in checked):
            print(f"  {wl}: {failed} failed operations", flush=True)
            unsteady += 1
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if unsteady else 0


def cmd_counters(args, spec) -> int:
    from tracing import EXACT

    bad = 0
    for wl in (w["name"] for w in spec["workloads"]):
        a, b = (run_once(spec, wl, COUNTER_SEED, True) for _ in range(2))
        diff = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"]) for k in EXACT
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]}
        ok = not diff and a["correct"] and b["correct"]
        bad += not ok
        print(f"{wl} seed {COUNTER_SEED}: {'exact counters repeat' if ok else diff or 'incorrect'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("mode", choices=("stats", "counters"))
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--heldout", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = load_spec()
    return cmd_stats(args, spec) if args.mode == "stats" else cmd_counters(args, spec)


if __name__ == "__main__":
    sys.exit(main())
