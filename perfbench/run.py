"""Benchmark entry point for the hamsearch CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload subspace --seed 1 --seconds 40 --trace 0

Closed loop, one client, one job at a time. Each pass is a fresh Python
process (child.py) that imports ``hamsearch.cli`` from ``src/`` and calls
``hamsearch.cli.main(argv)`` for every job of the workload in a fixed
order. Passes repeat until ``--seconds`` is used up (at least MIN_PASSES),
and each metric is the median over passes. Every output is checked after
its pass, outside the timed region; a job fails when its exit code is not 0
or a check finds a problem, and a failed job does not stop the run.

The host's speed drifts: on a shared 2-vCPU VM, each vCPU flips between a
fast and a 1.4-1.6 times slower state every second or so, and the share of
slow time changes from minute to minute. So each pass process also times
the workload's calibration loops (workloads.CALIBRATION) after the import
and after every job, and ``setup_s`` and ``wall_s`` are given in reference
seconds: each measured time is multiplied by the loops' reference time over
the calibration time measured around it (``to_reference``). A change to the
program moves them as it moves the raw times; the raw times are in the
record.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead (traced
minus untraced wall time). The last stdout line is the JSON result; the
full record, with per-job times, output digests and versions, goes to
.perfbench_out/results/. Outputs are written under .perfbench_out/ and
removed at the end of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from checks import check_job
from child import CALIBRATION_LOOPS
from tracing import COUNTERS, SPAN_NAMES, layer_metrics
from workloads import CALIBRATION, WORKLOADS, build_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_PASSES = 3  # untraced passes per run; a median needs at least three
PASS_TIMEOUT_S = 170
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
TRACE_OVERHEAD = "trace.overhead_s"
PER_LAYER = (
    [f"{name}.{kind}" for name in SPAN_NAMES for kind in ("calls", "self_s")]
    + list(COUNTERS)
    + ["cli.output_bytes", TRACE_OVERHEAD]
)


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("bytes") or metric.endswith("_computed") else "count"


def sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def to_reference(seconds: float, calibration_s: list, reference_s: float) -> float:
    """``seconds`` at the speed where the calibration takes ``reference_s``.

    ``calibration_s`` holds the calibration times measured just before and
    just after the timed work; their mean stands for the host's speed then.
    """
    return seconds * reference_s / statistics.fmean(calibration_s)


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


class Run:
    """The passes of one benchmark run and what they measured."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "out")
        indir = os.path.join(workdir, "inputs")
        os.makedirs(indir)
        self.jobs = build_jobs(workload, seed, indir, self.outdir)
        self.calibration = CALIBRATION[workload]
        self.reference_s = sum(CALIBRATION_LOOPS[name][1] for name in self.calibration)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, self.env.get("PYTHONPATH")]))
        self.package = os.path.join(src, "hamsearch")
        self.passes = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {job.name: set() for job in self.jobs}
        self.setups = {"raw": [], "ref": []}  # setup_s of every process, raw and scaled

    def child(self, jobs: list, spans: str | None) -> dict | None:
        """Run child.py on ``jobs``; its result, or None if it failed."""
        spec_path = os.path.join(self.workdir, "spec.json")
        result_path = os.path.join(self.workdir, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"jobs": [[job.name, job.argv] for job in jobs], "spans": spans,
                       "calibration": self.calibration}, fh)
        if os.path.exists(result_path):
            os.remove(result_path)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
            env=self.env, cwd=self.workdir, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.problems.append(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if os.path.realpath(result["package"]) != os.path.realpath(self.package):
            raise RuntimeError(f"imported hamsearch from {result['package']}, not {self.package}")
        calibration = result["calibration_s"]
        result["setup_ref_s"] = to_reference(result["setup_s"], calibration[:1], self.reference_s)
        result["wall_ref_s"] = sum(
            to_reference(job["seconds"], calibration[i:i + 2], self.reference_s)
            for i, job in enumerate(result["jobs"])
        )
        self.setups["raw"].append(result["setup_s"])
        self.setups["ref"].append(result["setup_ref_s"])
        return result

    def run_pass(self, traced: bool) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        os.makedirs(self.outdir)
        spans = os.path.join(self.workdir, "spans.npz") if traced else None
        result = self.child(self.jobs, spans)
        self.attempted += len(self.jobs)
        if result is None:
            self.failed += len(self.jobs)
            return
        for job, outcome in zip(self.jobs, result["jobs"]):
            problems = [f"exit code {outcome['exit_code']}"] if outcome["exit_code"] != 0 else []
            if outcome["error"]:
                problems.append(outcome["error"])
            problems += check_job(job)
            self.digests[job.name].add(sha256(job.out))
            if problems:
                self.failed += 1
                self.problems.append(f"{job.name}: {'; '.join(problems)}")
        if traced:
            result["layers"] = layer_metrics(spans)
            result["layers"]["cli.output_bytes"] = tree_bytes(self.outdir)
        self.passes[traced].append(result)

    def median(self, traced: bool, key: str) -> float:
        return statistics.median(p[key] for p in self.passes[traced])

    def job_medians(self) -> dict:
        return {
            job.metric: statistics.median(p["jobs"][i]["seconds"] for p in self.passes[False])
            for i, job in enumerate(self.jobs) if job.metric
        }

    def layer_values(self) -> dict:
        layers = [p["layers"] for p in self.passes[True]]
        # Times are medians over traced passes; counts repeat exactly.
        values = {
            name: statistics.median(layer[name] for layer in layers) if name.endswith("_s")
            else layers[0][name]
            for name in PER_LAYER if name != TRACE_OVERHEAD
        }
        values[TRACE_OVERHEAD] = self.median(True, "wall_s") - self.median(False, "wall_s")
        return values


def measure(args, workdir: str) -> tuple:
    run = Run(args.workload, args.seed, workdir)
    start = perf_counter()
    pass_times = []
    # A new pass (or untraced/traced pair) starts only if it should end
    # within --seconds, once the minimum count is done.
    while True:
        pass_start = perf_counter()
        if args.trace:
            run.run_pass(traced=False)
            run.run_pass(traced=True)
        else:
            # Import time varies more from process to process than job time,
            # so an import-only process adds a second setup_s sample per pass.
            run.child([], None)
            run.run_pass(traced=False)
        pass_times.append(perf_counter() - pass_start)
        done = len(pass_times)
        enough = done >= (1 if args.trace else MIN_PASSES)
        if enough and perf_counter() - start + statistics.median(pass_times) > args.seconds:
            break
    if not run.passes[False] or (args.trace and not run.passes[True]):
        raise RuntimeError("no pass completed:\n" + "\n".join(run.problems))

    if args.trace:
        values = run.layer_values()
    else:
        values = {"setup_s": statistics.median(run.setups["ref"]),
                  "wall_s": run.median(False, "wall_ref_s"),
                  "peak_rss_mb": run.median(False, "peak_rss_mb")}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": perf_counter() - start,
        "pass_wall_s": {kind: [p["wall_s"] for p in run.passes[traced]]
                        for kind, traced in (("untraced", False), ("traced", True))},
        "pass_wall_ref_s": [p["wall_ref_s"] for p in run.passes[False]],
        "pass_job_s": [[job["seconds"] for job in p["jobs"]] for p in run.passes[False]],
        "pass_calibration_s": [p["calibration_s"] for p in run.passes[False]],
        "setup_s": run.setups,
        "jobs": [{"name": job.name, "argv": list(job.argv)} for job in run.jobs],
        "job_seconds": run.job_medians(),
        "digests": {name: sorted(d for d in ds if d) for name, ds in run.digests.items()},
        "problems": run.problems[:20],
        "environment": {
            key: run.passes[False][0][key]
            for key in ("python", "numpy", "blas", "blas_threads", "nproc")
        },
        "metrics": values,
    }
    if args.trace:
        record["wall_s"] = {"untraced": run.median(False, "wall_s"),
                            "traced": run.median(True, "wall_s")}
    return run, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "hamsearch", "cli.py")):
        print(f"perfbench: no hamsearch sources under {ROOT}/src", file=sys.stderr)
        return 2

    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the
    # running pass before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = os.path.join(ROOT, ".perfbench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(base, f"{tag}-{os.getpid()}")
    try:
        run, record = measure(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    with open(os.path.join(base, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in run.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if not args.trace:
        print("per-job medians: " + ", ".join(
            f"{name} {value:.4f} s" for name, value in record["job_seconds"].items()))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
