#!/usr/bin/env python3
"""Benchmark harness: times real `bayesteach` CLI invocations.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload NAME --smoke --trace 0|1
    python3 benchmarks/run.py --baselines
    python3 benchmarks/run.py --derive-expected

Run from any directory; paths are taken relative to this file's
checkout, and the package is run from its ``src/`` tree, uninstalled.
See README.md in this directory for the workloads and metrics. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

import layers  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9
# figures ROADMAP.md quotes for a 2-CPU machine, printed by --baselines
ROADMAP_FIGURES = {
    "checks.oracle_suite_s": "~42 s",
    "dataset_make_wall_s": "~1.8 s",
    "cli.import_s": "~1.5 s",
    "exhaustive_threads1_wall_s": "~6 s",
    "exhaustive_threads2_wall_s": "~20 s",
    "core.threads2_ratio": "~3.3 (20 s / 6 s)",
    "candidates_per_s": "~46k/s",
}

clock = time.perf_counter


def child_env() -> dict:
    """The environment of every child: the caller's, with the package's
    source tree on the path, without BT_THREADS, so the CLI's default of
    one thread applies, and without PYTHONDONTWRITEBYTECODE, so the
    warm-up leaves compiled modules in __pycache__ as a user's first run
    would."""
    dropped = ("BT_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONPATH"] = SRC
    return env


def machine_facts() -> dict:
    import numpy
    import scipy

    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k, "unset") for k in blas_vars},
    }


@dataclass
class Invocation:
    name: str
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stderr_path: str
    doc: dict | None
    trace: dict | None = None


class Runner:
    """Runs CLI invocations one at a time in a fixture directory and
    checks each output."""

    def __init__(self, workdir: str, checker: outputs.Checker):
        self.workdir = workdir
        self.checker = checker
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.counter = 0

    def invoke(self, cmd: workloads.Command, traced: bool = False, coarse: bool = False) -> Invocation:
        self.counter += 1
        stem = os.path.join(self.workdir, f"{self.counter:04d}-{cmd.name}")
        out, err, spans = stem + ".json", stem + ".err", stem + ".spans"
        args = [*cmd.argv, "--out", out]
        if traced:
            extra = ["--coarse"] if coarse else []
            argv = [sys.executable, "-X", "importtime", LAUNCHER, spans, *extra, "--", *args]
        else:
            argv = [sys.executable, "-m", "bayesteach.cli", *args]
        with open(err, "wb") as err_fh:
            start = clock()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err_fh)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        doc = trace = None
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                try:
                    doc = json.load(fh)
                except json.JSONDecodeError:
                    pass  # counted as a missing document
        if traced and os.path.exists(spans):
            with open(spans, encoding="utf-8") as fh:
                trace = json.load(fh)
            with open(err, encoding="utf-8", errors="replace") as fh:
                trace["imports"] = layers.parse_importtime(fh.read())
        return Invocation(cmd.name, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, proc.returncode, err, doc, trace)

    def judge(self, cmd: workloads.Command, inv: Invocation, docs: dict) -> None:
        self.attempted += 1
        problems = self.checker.check(cmd, inv.exit_code, inv.doc, docs)
        if problems:
            self.failed += 1
            print(f"FAILED {cmd.name}: {'; '.join(problems)}", file=sys.stderr)
            if inv.exit_code != 0:
                with open(inv.stderr_path, encoding="utf-8", errors="replace") as fh:
                    print(fh.read()[-2000:], file=sys.stderr)

    def run_pass(self, cmds: list[workloads.Command], traced: bool = False) -> tuple[float, list[Invocation]]:
        """Run every command once; returns the pass wall time, the sum of
        the invocations' spawn-to-exit times, and the invocations. Outputs
        are checked after the pass."""
        invs = [self.invoke(cmd, traced) for cmd in cmds]
        wall = sum(inv.wall for inv in invs)
        docs = {inv.name: inv.doc for inv in invs}
        for cmd, inv in zip(cmds, invs):
            self.judge(cmd, inv, docs)
        return wall, invs


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    11th largest value. Below 21 samples that percentile falls under the
    median, so the maximum is reported instead. Returns (value,
    percentile, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 11) / (n - 1), 10


def setup(seed: int, size: str, work: str) -> tuple[str, list[float]]:
    """Write the fixtures SETUP_REPEATS times into fresh directories and
    time each; the run uses the last one."""
    import bayesteach.models  # noqa: F401  (import cost is not set-up work)

    times = []
    for i in range(SETUP_REPEATS):
        directory = os.path.join(work, f"fixtures-{i}")
        if i:
            shutil.rmtree(os.path.join(work, f"fixtures-{i - 1}"))
        os.makedirs(directory)
        start = clock()
        workloads.make_fixtures(seed, size, directory)
        times.append(clock() - start)
    return directory, times


def run_workload(args, work: str) -> dict:
    size = "smoke" if args.smoke else "full"
    fixtures, setup_times = setup(args.seed, size, work)
    expected = None
    if size == "full" and args.seed == workloads.DEFAULT_SEED:
        expected = outputs.load_expected()
    runner = Runner(fixtures, outputs.Checker(fixtures, expected))
    cmds = workloads.commands(args.workload, args.seed, size)

    warm = workloads.warmup_command()
    runner.judge(warm, runner.invoke(warm), {})

    # The pass count comes from --seconds, not from a clock, so every run
    # of a workload at the same --seconds takes the same number of samples
    # and its medians and tail mean the same thing from run to run.
    pass_s = workloads.PASS_SECONDS[args.workload] * (2 if args.trace else 1)
    count = 1 if args.smoke else max(1, int(args.seconds // pass_s))
    passes: list[tuple[float, list[Invocation]]] = []
    untraced_walls: list[float] = []
    for _ in range(count):
        if args.trace:
            untraced_walls.append(runner.run_pass(cmds)[0])
        passes.append(runner.run_pass(cmds, traced=bool(args.trace)))

    last_docs = {inv.name: inv.doc for inv in passes[-1][1]}
    for ref in workloads.reference_commands(args.workload, args.seed, size):
        runner.judge(ref, runner.invoke(ref), last_docs)

    facts = machine_facts()
    print(f"workload {args.workload}  seed {args.seed}  size {size}  "
          f"passes {len(passes)}  trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    failed_ratio = runner.failed / runner.attempted
    print(f"  failed_ratio = {failed_ratio:.4f} ratio "
          f"({runner.failed} of {runner.attempted} invocations)")

    if args.trace:
        per_pass = [layers.pass_metrics([inv.trace or {"spans": [], "calls": [], "imports": {}}
                                         for inv in invs]) for _, invs in passes]
        metrics = {key: statistics.median(p[key] for p in per_pass)
                   for key in layers.PER_LAYER if key != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in passes)
                                       - statistics.median(untraced_walls))
        units = layers.PER_LAYER
    else:
        invs = [inv for _, pass_invs in passes for inv in pass_invs]
        latency_tail, pct, beyond = tail([inv.wall for inv in invs])
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(wall for wall, _ in passes),
            "latency_p50_s": statistics.median(inv.wall for inv in invs),
            "latency_tail_s": latency_tail,
            "cpu_s": statistics.median(sum(i.cpu for i in p) for _, p in passes),
            "peak_rss_mb": statistics.median(max(i.rss_mb for i in p) for _, p in passes),
        }
        units = END_TO_END
        print(f"  latency_tail_s is p{pct:.1f} of {len(invs)} invocations, "
              f"{beyond} beyond it")
        for cmd in cmds:
            walls = [inv.wall for inv in invs if inv.name == cmd.name]
            print(f"  command {cmd.name}: median {statistics.median(walls):.3f} s")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k not in layers.PRINT_ONLY},
    }


def run_baselines(work: str) -> dict:
    """ROADMAP's reference figures, each measured once."""
    fixtures, _ = setup(workloads.DEFAULT_SEED, "full", work)
    runner = Runner(fixtures, outputs.Checker(fixtures, None))
    Command = workloads.Command
    warm = workloads.warmup_command()
    runner.judge(warm, runner.invoke(warm), {})

    def traced(cmd, coarse=False):
        inv = runner.invoke(cmd, traced=True, coarse=coarse)
        runner.judge(cmd, inv, {})
        return inv

    metrics = {}
    oracle = traced(Command("oracle-all", ("oracle", "check", "--suite", "all")), coarse=True)
    metrics.update(layers.check_metrics([oracle.trace]))

    make_cmd = workloads.commands("cli-walkthrough", workloads.DEFAULT_SEED, "full")[0]
    make = runner.invoke(make_cmd)
    runner.judge(make_cmd, make, {})
    metrics["dataset_make_wall_s"] = make.wall

    exhaustive = workloads.commands("plda-exhaustive", workloads.DEFAULT_SEED, "full")[0]
    full = traced(exhaustive)
    layer_metrics = layers.pass_metrics([full.trace])
    for key in ("cli.import_s", "cli.import_scipy_stats_s", "cli.import_scipy_special_s",
                "spaces.candidates_per_s", "learners.loglik_per_s"):
        metrics[key] = layer_metrics[key]
    posterior = {}
    for threads in (1, 2):
        cmd = Command(f"exhaustive-threads{threads}", exhaustive.argv + ("--threads", str(threads)),
                      data=exhaustive.data, model=exhaustive.model, per_class_k=2)
        inv = traced(cmd, coarse=True)
        posterior[threads] = layers.pass_metrics([inv.trace])["core.posterior_s"]
        metrics[f"exhaustive_threads{threads}_wall_s"] = inv.wall
    metrics["core.threads2_ratio"] = posterior[2] / posterior[1]
    metrics["candidates_per_s"] = (full.doc["diagnostics"]["space_size"]
                                   / metrics["exhaustive_threads1_wall_s"])

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    for key, value in metrics.items():
        print(f"  {key:38s} {value:12.4f}   ROADMAP: {ROADMAP_FIGURES.get(key, '-')}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": "ratio" if "ratio" in k else
                            ("1/s" if k.endswith("_per_s") else "s")} for k, v in metrics.items()}}


def derive(work: str) -> None:
    directory, _ = setup(workloads.DEFAULT_SEED, "full", work)
    expected = outputs.derive_expected(directory)
    with open(outputs.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(expected, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass at tiny sizes, for the benchmark's own tests")
    parser.add_argument("--baselines", action="store_true",
                        help="measure ROADMAP's reference figures once")
    parser.add_argument("--derive-expected", action="store_true",
                        help="rewrite expected.json from the brute-force oracles")
    args = parser.parse_args(argv)
    if not (args.workload or args.baselines or args.derive_expected):
        parser.error("choose --workload, --baselines or --derive-expected")
    if not os.path.isfile(os.path.join(SRC, "bayesteach", "cli.py")):
        print(f"error: no bayesteach package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # on SIGTERM, unwind normally: the running child is killed and reaped
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        if args.derive_expected:
            derive(work)
            return 0
        result = run_baselines(work) if args.baselines else run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
