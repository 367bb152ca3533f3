"""ddlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the script works in the checkout that holds it and
imports ddlab from its `src/` directory, never from an installed copy.

The loop is closed: one caller issues the next operation only when the
previous one returned.  A pass runs every operation of the workload once.
Passes repeat until the next one would overrun --seconds (at least three
are made).  Every pass must reproduce the first pass's output bytes, and
the first pass's outputs are checked against the oracles once timing is
over; an exception, a wrong answer or a byte mismatch counts as a failed
operation and the run goes on.

--trace 0 prints the end-to-end metrics.  Every time among them is given
at the reference speed of speed.py: the host's processor speed drifts by
more than the bounds, so each measured interval is scaled by the speed of
a fixed reference kernel sampled in and around it.
    setup_s       median set-up time (import, input generation, warm-up)
                  of this process and of four fresh interpreters after
                  every pass
    wall_s        median time of one pass
    op_p50_s      typical operation time: the geometric mean of each
                  operation's median time over the passes
    peak_rss_mb   peak resident memory before the oracles run
    success_rate  1 - failed / attempted
The raw times are kept in the result file under perfbench/out/.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of tracing.py, from the traced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned before numpy is first imported
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3
PROBES_PER_PASS = 4
SETUP_SAMPLE_INTERVAL = 0.02   # set-up lasts about 0.2 s
SETUP_SAMPLES_AFTER = 10
EXIT_NO_PROGRAM = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only, print the set-up seconds and exit")
    return p.parse_args(argv)


def import_ddlab():
    """Import ddlab from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ddlab
    except ImportError as exc:
        print(f"perfbench: cannot import ddlab from {src}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if src not in Path(ddlab.__file__).resolve().parents:
        print(f"perfbench: ddlab came from {ddlab.__file__}, not {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return ddlab


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_sha": git_sha(), "machine": platform.machine(),
    }


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_probe(args) -> tuple:
    """(set-up seconds at the reference speed, raw) of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    scaled, raw = proc.stdout.strip().splitlines()[-1].split()
    return float(scaled), float(raw)


class Runner:
    """Runs passes of a workload and keeps their outputs and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = [None] * len(workload.ops)   # first output of each op
        self.passes = []             # per pass: output bytes, None where it raised
        self.failures = []           # (op name, message) of failed operations
        self.problems = []           # faults of the run itself

    def run_pass(self, call, op_context=None):
        """One pass; returns (pass seconds, op (start, end) times, outputs)."""
        spans, outputs = [], []
        t_pass = time.perf_counter()
        for i, op in enumerate(self.workload.ops):
            t0 = time.perf_counter()
            try:
                with op_context(i) if op_context else contextlib.nullcontext():
                    out = op.run(call)
            except Exception:  # a failed operation is counted, the run goes on
                out = None
                self.failures.append((op.name, traceback.format_exc(limit=3)))
            spans.append((t0, time.perf_counter()))
            outputs.append(out)
        wall = time.perf_counter() - t_pass
        for i, (op, out) in enumerate(zip(self.workload.ops, outputs)):
            if out is None:
                continue
            if self.reference[i] is None:
                self.reference[i] = out
            elif out != self.reference[i]:
                self.failures.append((op.name, "output bytes differ from the first pass"))
        self.passes.append(outputs)
        return wall, spans, outputs

    @property
    def attempted(self) -> int:
        return len(self.workload.ops) * len(self.passes)

    def check_reference(self):
        """Oracle checks of each op's first output; a wrong answer fails
        every pass that reproduced it."""
        for i, (op, out) in enumerate(zip(self.workload.ops, self.reference)):
            if out is None:
                continue
            try:
                msg = op.check(out)
            except Exception:
                msg = "oracle check raised:\n" + traceback.format_exc(limit=3)
            if msg:
                repeats = sum(p[i] == out for p in self.passes)
                self.failures.extend([(op.name, msg)] * repeats)


def measure(runner, seconds, call, probe) -> dict:
    """Untraced passes until the next would overrun `seconds`.

    The reference kernel is sampled while the passes run.  `probe()` runs
    PROBES_PER_PASS times after each pass, with sampling paused: the box's
    speed drifts over tens of seconds, so set-ups are sampled across the
    whole run, as the passes are.  Returns per pass the time of every
    operation, at the reference speed and raw, and the probes' set-up
    times, at the reference speed and raw.
    """
    import speed

    sampler = speed.Sampler(speed.INTERVAL)
    spans, walls, setups = [], [], []
    start = time.perf_counter()
    try:
        while True:
            sampler.start()
            wall, ops, _ = runner.run_pass(call)
            sampler.stop()
            walls.append(wall)
            spans.append(ops)
            setups.extend(probe() for _ in range(PROBES_PER_PASS))
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
                break
    finally:
        sampler.stop()
    return {
        "op_s": [[sampler.scaled(t0, t1) for t0, t1 in ops] for ops in spans],
        "op_raw_s": [[sampler.raw(t0, t1) for t0, t1 in ops]
                     for ops in spans],
        "probes": setups,
        "reference_s": sampler.seconds,
    }


def geometric_mean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def typical_op_time(op_times) -> float:
    """The geometric mean of the operations' median times over the passes.

    A plain median over operations of very different sizes is the time of
    one fixed operation; the geometric mean moves with every operation.
    """
    return geometric_mean(statistics.median(times) for times in zip(*op_times))


def measure_traced(runner, seconds, call) -> dict:
    """Alternate untraced and traced passes; per-layer metrics of the traced."""
    from tracing import EXACT, Tracer

    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        wall, _, _ = runner.run_pass(call)
        plain.append(wall)
        tracer.reset()
        with tracer.installed():
            wall, _, outputs = runner.run_pass(tracer.call, tracer.op)
        if not tracer.restored():
            runner.problems.append("a wrapper was left installed")
        traced.append(wall)
        metrics = tracer.layer_metrics()
        metrics["cli.bytes_out"] = sum(
            len(o) for op, o in zip(runner.workload.ops, outputs)
            if o is not None and op.kind == "cli")
        layers.append(metrics)
        if len(layers) == 1:
            tracer.write_spans(OUT / f"spans-{runner.workload.name}.csv")
        elif any(metrics[k] != layers[0][k] for k in EXACT):
            runner.problems.append("exact counters changed between traced passes")
        elapsed = time.perf_counter() - start
        if (len(traced) >= 2 and
                elapsed + statistics.median(plain) + statistics.median(traced) > seconds):
            break
    out = {k: (layers[0][k] if k in EXACT else statistics.median(m[k] for m in layers))
           for k in layers[0]}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_ddlab()
    sys.path.insert(0, str(HERE))
    import speed

    # set-up is scaled as operations are, from kernel samples taken inside
    # it, and from a few right after it because it is short
    setup_sampler = speed.Sampler(SETUP_SAMPLE_INTERVAL)
    setup_sampler.start()
    import workloads

    if args.workload not in workloads.BUILDERS:
        setup_sampler.stop()
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            workload = workloads.BUILDERS[args.workload](args.seed, work.relative_to(ROOT))
            for op in workload.warm_up:
                op.run(workloads.direct_call)
        finally:
            setup_sampler.stop()
        t_setup = time.perf_counter()
        setup_sampler.sample(SETUP_SAMPLES_AFTER)
        setup = (setup_sampler.scaled(T_START, t_setup), setup_sampler.raw(T_START, t_setup))
        if args.setup_probe:
            print(repr(setup[0]), repr(setup[1]))
            return 0

        runner = Runner(workload)
        if args.trace:
            layers = measure_traced(runner, args.seconds, workloads.direct_call)
        else:
            timed = measure(runner, args.seconds, workloads.direct_call,
                            lambda: setup_probe(args))
            setups = [setup] + timed["probes"]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check_reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    for name, msg in runner.failures:
        print(f"perfbench: FAILED {name}: {msg}", file=sys.stderr)
    for msg in runner.problems:
        print(f"perfbench: FAULT {msg}", file=sys.stderr)
    if args.trace:
        from tracing import METRICS

        report = {name: {"value": layers[name], "unit": unit} for name, unit, _ in METRICS}
        passes = {}
    else:
        scaled_setups = [s for s, _ in setups]
        walls = [sum(ops) for ops in timed["op_s"]]
        report = {
            "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_s": {"value": typical_op_time(timed["op_s"]), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / runner.attempted, "unit": "ratio"},
        }
        passes = {"setup_s": scaled_setups, "wall_s": walls, "op_s": timed["op_s"],
                  "raw": {"setup_s": [r for _, r in setups],
                          "wall_s": [sum(ops) for ops in timed["op_raw_s"]],
                          "op_s": timed["op_raw_s"],
                          "op_p50_s": typical_op_time(timed["op_raw_s"]),
                          "reference_s": timed["reference_s"]}}
    env = environment(args)
    print(json.dumps({"env": env}))
    result = {"correct": not (runner.failures or runner.problems), "attempted": runner.attempted,
              "failed": failed, "metrics": report}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **result, "passes": passes}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
