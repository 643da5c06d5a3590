"""steinlab benchmark: CLI workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload score-d8 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Each measured run is a fresh ``steinlab`` CLI process (``child.py``, which
imports the package from ``src/``) on inputs generated from ``--seed`` into
``perfbench/work/``.  Every run's outputs are checked; see ``checks.py``.

``--trace 0`` repeats the untraced command for ``--seconds`` seconds and
reports the end-to-end metrics as medians over those processes.
``--trace 1`` does the same untraced runs, then traced runs at the
workload's thread count and at one thread, and reports per-layer metrics.
Summary lines, the environment and quartiles go to standard output; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record goes to ``perfbench/work/<workload>-seed<n>/result.json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks
import inputs
from tracer import COUNTERS, LAYER_FUNCTIONS, span_name

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
MIN_RUNS = 3

PAIRWISE_SPANS = ("discrepancy.coord_stein_sums", "kernels.radial_profile")
SCORE_SPANS = (
    "models.grad_log_subset",
    "models.grad_log_full",
    "models.grad_log_terms",
    "discrepancy.scaled_scores",
)
COMMON_SPANS = (
    "io.load_config",
    "rng.uniform_subsets",
    "discrepancy.scaled_scores",
    "discrepancy.coord_stein_sums",
    "kernels.radial_profile",
    "models.grad_log_subset",
    "parallel.ordered_map",
)


@dataclass(frozen=True)
class Workload:
    command: str
    out: str
    threads: int
    work: float  # throughput units done by one run
    work_unit: str
    check: Callable
    expected_spans: tuple  # layer functions every run must call
    reference_check: Optional[Callable] = None


WORKLOADS = {
    "score-d8": Workload(
        command="score",
        out="result.json",
        threads=2,
        work=float(inputs.SCORE_N) ** 2,
        work_unit="Stein pair terms (n^2)",
        check=checks.check_score,
        expected_spans=COMMON_SPANS
        + ("discrepancy.draw_subsets", "discrepancy.sksd", "io.read_samples_csv",
           "io.write_json"),
        reference_check=lambda files: checks.check_score(files, inputs.REFERENCE_SCORE_N),
    ),
    "tune-gmm": Workload(
        command="tune-sgld",
        out="tune.csv",
        threads=2,
        work=float(len(inputs.TUNE_EPS_GRID) * inputs.TUNE_TRIALS),
        work_unit="pilot-chain cells (one chain plus its three scorings)",
        check=checks.check_tune,
        expected_spans=COMMON_SPANS
        + ("discrepancy.draw_subsets", "discrepancy.sksd", "samplers.sgld_chain",
           "models.grad_log_terms", "io.write_table_csv"),
        reference_check=lambda files: checks.check_tune(
            files, inputs.REFERENCE_TUNE_STEPS, trials=1
        ),
    ),
    "ssvgd-n50": Workload(
        command="ssvgd",
        out="particles.csv",
        threads=1,
        work=float(inputs.SSVGD_PARTICLES * inputs.SSVGD_ROUNDS),
        work_unit="particle-rounds",
        check=checks.check_ssvgd,
        expected_spans=COMMON_SPANS
        + ("discrepancy.ksd", "models.grad_log_full", "kernels.median_heuristic_bandwidth",
           "samplers.iid_gaussian", "svgd.ssvgd_direction", "svgd.run_ssvgd",
           "io.write_samples_csv", "io.write_jsonl"),
    ),
}


@dataclass
class Run:
    code: int
    wall_s: float
    setup_s: Optional[float]
    rss_mb: float
    files: dict
    stderr: str
    trace: Optional[dict]
    term_evals: int = 0


class Bench:
    """Starts the CLI processes of one benchmark run and checks each one."""

    def __init__(self, name, seed, work_dir):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work_dir = work_dir
        self.config = inputs.write_inputs(name, seed, work_dir)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.expected_files = None
        self._count = 0

    def _spawn(self, config, threads, trace):
        run_dir = os.path.join(self.work_dir, f"run-{self._count}")
        self._count += 1
        out_dir = os.path.join(run_dir, "out")
        os.makedirs(out_dir)
        stamp = os.path.join(run_dir, "stamp.json")
        trace_path = os.path.join(run_dir, "trace.json") if trace else "-"
        argv = [
            sys.executable, os.path.join(HERE, "child.py"), stamp, trace_path, "--",
            self.workload.command, "--config", config,
            "--out", os.path.join(out_dir, self.workload.out),
            "--threads", str(threads),
        ]
        env = {k: v for k, v in os.environ.items() if k != "STEINLAB_THREADS"}
        env.update(BLAS_ENV)
        err_path = os.path.join(run_dir, "stderr.txt")
        with open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup_s = None
        if os.path.exists(stamp):
            with open(stamp, encoding="utf-8") as handle:
                first = json.load(handle)["first_compute"]
            setup_s = None if first is None else first - start
        trace_data = None
        if trace and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as handle:
                trace_data = json.load(handle)
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as handle:
                files[name] = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        shutil.rmtree(run_dir)
        return Run(
            code=proc.returncode,
            wall_s=end - start,
            setup_s=setup_s,
            rss_mb=usage.ru_maxrss * 1024 / 1e6,
            files=files,
            stderr=stderr,
            trace=trace_data,
        )

    def _fail(self, label, problems):
        self.failed += 1
        for problem in problems:
            self.problems.append(f"{label}: {problem}")
            print(f"FAILED {self.name} {label}: {problem}", file=sys.stderr)

    def run(self, label, threads, trace=False, config=None, check=None):
        """One checked CLI run.  Runs of the workload's own config must all
        write byte-identical files; ``check`` defaults to the workload's."""
        self.attempted += 1
        run = self._spawn(config or self.config, threads, trace)
        problems = []
        if run.code != 0:
            problems.append(f"exit status {run.code}: {run.stderr.strip()[-500:]}")
        else:
            try:
                run.term_evals, problems = (check or self.workload.check)(run.files)
            except (KeyError, ValueError, IndexError) as err:
                problems.append(f"unreadable output: {err!r}")
            if run.setup_s is None:
                problems.append("no compute layer was called")
            if config is None:
                if self.expected_files is None:
                    self.expected_files = run.files
                elif run.files != self.expected_files:
                    problems.append("output files differ from the first run")
            if trace:
                if run.trace is None:
                    problems.append("no trace was written")
                else:
                    missing = run.trace["missing"] + [
                        name for name in self.workload.expected_spans
                        if run.trace["spans"].get(name, {}).get("calls", 0) == 0
                    ]
                    if missing:
                        problems.append(f"missing layer functions: {sorted(set(missing))}")
        if problems:
            self._fail(label, problems)
            return None
        return run

    def reference_run(self, reference):
        """Run the fixed reference inputs; values must match reference.json."""
        config = inputs.write_reference_inputs(self.name, os.path.join(self.work_dir, "ref"))
        run = self.run("reference", self.workload.threads, config=config,
                       check=self.workload.reference_check)
        if run is not None:
            problems = checks.compare_reference(
                checks.discrepancy_values(self.name, run.files), reference[self.name]
            )
            if problems:
                self._fail("reference", problems)
        return run


def warm_up():
    """Import the package once so bytecode caches exist before timing."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import steinlab.cli"],
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def commit():
    head = os.path.join(".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(".git", ref[5:])
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        return ref[5:]
    return ref


def environment(threads):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "commit": commit(),
        "threads": threads,
        "blas_env": dict(BLAS_ENV),
    }


def end_to_end(workload, runs):
    walls = [r.wall_s for r in runs]
    setups = [r.setup_s for r in runs]
    rates = [workload.work / (r.wall_s - r.setup_s) for r in runs]
    rss = [r.rss_mb for r in runs]
    series = {
        "wall_s": ("s", walls),
        "setup_s": ("s", setups),
        "throughput": ("items/s", rates),
        "peak_rss_mb": ("MB", rss),
        "term_evals": ("count", [float(r.term_evals) for r in runs]),
    }
    metrics, detail = {}, {}
    for name, (unit, values) in series.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        detail[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values),
                        "unit": unit, "values": values}
    detail["throughput"]["work_unit"] = workload.work_unit + " per second"
    return metrics, detail


def per_layer(runs, traced, traced_one):
    spans = traced.trace["spans"]
    metrics = {}
    for module, attribute, _ in LAYER_FUNCTIONS:
        name = span_name(module, attribute)
        stats = spans.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = {"value": stats["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": stats["self_s"], "unit": "s"}
    units = {"io.bytes_written": "bytes"}
    for name in COUNTERS:
        metrics[name] = {"value": traced.trace["counters"][name], "unit": units.get(name, "count")}
    untraced = statistics.median(r.wall_s for r in runs)
    metrics["parallel.speedup"] = {"value": traced_one.wall_s / traced.wall_s, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": traced.wall_s - untraced, "unit": "s"}
    metrics["trace.coverage"] = {
        "value": traced.trace["main_root_s"] / traced.wall_s, "unit": "ratio"
    }
    # Shares of the one-thread traced run, where self times partition the
    # covered wall time.
    one = traced_one.trace["spans"]
    for metric, names in (("share.pairwise", PAIRWISE_SPANS), ("share.scores", SCORE_SPANS)):
        busy = sum(one.get(n, {"self_s": 0.0})["self_s"] for n in names)
        metrics[metric] = {"value": busy / traced_one.wall_s, "unit": "ratio"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "steinlab", "cli.py")):
        print("run.py: no src/steinlab/ here; run from the root of a steinlab "
              "source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)

    work_dir = os.path.relpath(os.path.join(HERE, "work", f"{args.workload}-seed{args.seed}"))
    shutil.rmtree(work_dir, ignore_errors=True)
    bench = Bench(args.workload, args.seed, work_dir)
    workload = bench.workload
    warm_up()

    if workload.reference_check is not None:
        bench.reference_run(reference)
    if workload.threads > 1:
        # The first run fixes the expected bytes; every later run, at any
        # thread count, must reproduce them.
        bench.run("threads-1", 1)

    # Start another process only while it is expected to end within the
    # measuring window.
    runs = []
    deadline = time.monotonic() + args.seconds
    while len(runs) < MIN_RUNS or (
        time.monotonic() + statistics.median(r.wall_s for r in runs) < deadline
    ):
        run = bench.run(f"measured-{len(runs)}", workload.threads)
        if run is None and bench.failed > MIN_RUNS:
            break
        if run is not None:
            runs.append(run)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(workload.threads)}
    metrics = {}
    if runs:
        metrics, record["end_to_end"] = end_to_end(workload, runs)
    if args.trace and runs:
        traced = bench.run("traced", workload.threads, trace=True)
        traced_one = traced
        if workload.threads > 1:
            traced_one = bench.run("traced-threads-1", 1, trace=True)
        if traced is not None and traced_one is not None:
            metrics = per_layer(runs, traced, traced_one)
            record["per_layer"] = metrics
            record["spans"] = traced.trace["spans"]
        else:
            metrics = {}
    record["failed_frac"] = bench.failed / bench.attempted
    record["problems"] = bench.problems
    correct = bench.failed == 0 and bool(metrics)

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, item in record.get("end_to_end", {}).items():
        print(f"{args.workload} {name}: median {item['median']:.6g} {item['unit']} "
              f"(q1 {item['q1']:.6g}, q3 {item['q3']:.6g}, {item['runs']} runs)")
    print(f"{args.workload} failed_frac: {record['failed_frac']:.6g} ratio "
          f"({bench.failed} of {bench.attempted} runs failed)")
    for name, item in record.get("per_layer", {}).items():
        print(f"{args.workload} {name}: {item['value']:.6g} {item['unit']}")
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
