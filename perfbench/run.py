#!/usr/bin/env python3
"""Benchmark for the embedmatch pipeline: attack-suite, train and analyze.

One workload (run from the root of a checkout):

    python3 perfbench/run.py --workload attack-suite --seed 1 --seconds 30 --trace 0

Every workload in turn, untraced and traced, with a table of every metric
(``--out`` also writes the table, the environment and the output digests as
JSON; ``perfbench/baseline.json`` was written this way):

    python3 perfbench/run.py --workload all --seed 1 [--out FILE]

A run sets its inputs up several times (``setup_s`` is the median), then
repeats the workload's CLI commands on those inputs until ``--seconds`` have
passed and reports medians over the repetitions.  After each repetition the
outputs are checked; a failed check, or outputs whose digest differs from the
first repetition's, counts as failed operations.  ``--trace 1`` spends the
first third of the time untraced and the rest with the tracer installed, and
reports per-layer numbers per traced repetition.  The last line of standard
output is the JSON result; metric names, units and directions come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    from embedmatch import autodiff, cli
    from tracer import Tracer
    from workloads import WORKLOADS, Outcome, run_cli
except ImportError as e:
    sys.exit(f"cannot import embedmatch from {ROOT / 'src'}: {e}")

SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = Path(__file__).resolve().parent / "_work"
SETUP_MIN_REPEATS = 5     # set-up repeats at least this often and for SETUP_SECONDS
SETUP_SECONDS = 2.0
UNTRACED_SHARE = 1 / 3   # of a traced run's time, spent untraced for the overhead ratio
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# outputs that hold paths or timestamps, so they are left out of the digest
UNHASHED = ("manifest-*.json", "report.json")

TRACED_FUNCTIONS = {
    "model": ("record_forward", "matching_loss_grad_embed"),
    "attack": ("run_suite", "prm", "project", "build_pairs"),
    "train": ("train", "evaluate"),
    "metrics": ("psnr", "ssim", "cosine", "per_record_metrics", "aggregate"),
    "pca": ("fit_pca", "project"),
    "detector": ("sweep", "detect"),
    "data": ("load_dataset", "load_image", "save_image", "generate_synthetic", "write_dataset"),
    "weights_io": ("load_weights", "save_weights"),
    "records_io": ("write_records", "read_records"),
}
# spans that only set-up calls; they come from one traced set-up, all others
# from the timed repetitions
SETUP_SPANS = ("data.generate_synthetic", "data.write_dataset", "cli.gen-data")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit,
    }


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if any(path.match(pattern) for pattern in UNHASHED):
            continue
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def make_tracer():
    tracer = Tracer()
    for module_name, functions in TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"embedmatch.{module_name}")
        for fn in functions:
            tracer.span(module, fn, f"{module_name}.{fn}")
    for attr in vars(cli):
        if attr.startswith("cmd_"):
            tracer.span(cli, attr, "cli." + attr[4:].replace("_", "-"))
    tracer.span_by_op(autodiff.Tape, "apply", "autodiff.apply")
    tracer.span(autodiff.Tape, "backward", "autodiff.backward")
    tracer.count(autodiff.Tape, "__init__", "tapes")
    tracer.count(autodiff.Tape, "leaf", "leaves")
    return tracer


class Run:
    """One workload run: set-ups, timed repetitions, checks and digests."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.setup_times: list[float] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self, min_repeats: int, seconds: float = 0.0, tracer=None) -> None:
        """Set up at least `min_repeats` times and for `seconds`; keep the first."""
        start = time.perf_counter()
        while len(self.setup_times) < min_repeats or time.perf_counter() - start < seconds:
            i = len(self.setup_times)
            target = self.inputs if i == 0 else self.work / f"setup{i}"
            with tracer.installed() if tracer and i == 0 else nullcontext():
                t0 = time.perf_counter()
                self.workload.setup(target, self.seed)
                self.setup_times.append(time.perf_counter() - t0)
            if i:
                shutil.rmtree(target)

    def repeat(self, seconds: float, tracer=None) -> list[dict]:
        """Repeat the timed commands for `seconds` (at least once)."""
        reps = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            out = self.work / f"rep{len(self.digests)}"
            argvs = self.workload.commands(self.inputs, out, self.seed)
            with tracer.installed() if tracer else nullcontext():
                t0 = time.perf_counter()
                codes = [run_cli(argv) for argv in argvs]
                wall = time.perf_counter() - t0
            try:
                outcome = self.workload.check(self.inputs, out, codes)
            except (OSError, ValueError, KeyError) as e:
                print(f"output check failed: {e!r}", file=sys.stderr)
                outcome = Outcome(len(argvs), len(argvs), 0)
            digest = output_digest(out)
            if self.digests and digest != self.digests[0]:
                print(f"output digest {digest} differs from {self.digests[0]}", file=sys.stderr)
                outcome.failed = outcome.attempted
            self.digests.append(digest)
            shutil.rmtree(out, ignore_errors=True)
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            reps.append({"wall": wall, "outcome": outcome})
        return reps


def end_to_end(run: Run, reps: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup_times),
        "wall_s": statistics.median(r["wall"] for r in reps),
        "units_per_s": statistics.median(r["outcome"].units / r["wall"] for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names, rep_table, setup_table, counts, reps, untraced) -> dict[str, float]:
    """Per-layer metrics, per traced repetition (set-up spans: per set-up)."""
    n = len(reps)
    first = reps[0]["outcome"]
    applies = sum(v["calls"] for k, v in rep_table.items() if k.startswith("autodiff.apply."))
    record_forwards = rep_table.get("model.record_forward", {}).get("calls", 0) / n
    derived = {
        "autodiff.nodes_per_tape":
            (counts.get("leaves", 0) + applies) / counts["tapes"] if counts.get("tapes") else 0.0,
        "attack.iters": first.iters,
        "attack.converged_frac": first.converged / first.records if first.records else 0.0,
        "analyze.forwards_per_record": record_forwards / first.records if first.records else 0.0,
        "trace.overhead": (statistics.median(r["wall"] for r in reps)
                           / statistics.median(r["wall"] for r in untraced)),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
            continue
        span, _, field = name.rpartition(".")
        per_setup = span in SETUP_SPANS
        row = (setup_table if per_setup else rep_table).get(span)
        scale = 1 if per_setup else n
        if field == "calls":
            values[name] = (row["calls"] if row else 0) / scale
        elif field == "self_ms":
            values[name] = (row["self_s"] if row else 0.0) * 1000.0 / scale
        elif field == "ms" and span.startswith("cli."):
            values[name] = (row["incl_s"] if row else 0.0) * 1000.0 / scale
        else:
            raise KeyError(f"BENCHMARK.json names a per-layer metric the benchmark cannot measure: "
                           f"{name}")
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    spec = load_spec()
    work = WORK_ROOT / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[name], seed, work)
        if not trace:
            run.setup(SETUP_MIN_REPEATS, SETUP_SECONDS)
            values = end_to_end(run, run.repeat(seconds))
            declared = spec["end_to_end"]
        else:
            setup_tracer, rep_tracer = make_tracer(), make_tracer()
            run.setup(1, tracer=setup_tracer)
            untraced = run.repeat(seconds * UNTRACED_SHARE)
            traced = run.repeat(seconds * (1 - UNTRACED_SHARE), rep_tracer)
            values = per_layer([m["name"] for m in spec["per_layer"]], rep_tracer.table(),
                               setup_tracer.table(), rep_tracer.counts, traced, untraced)
            declared = spec["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still works there
            pass
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    info = {"workload": name, "seed": seed, "trace": int(trace), "digest": run.digests[0],
            "repetitions": len(run.digests), "env": environment()}
    return result, info


def print_metrics(metrics: dict, declared: list[dict], workload: str) -> None:
    better = {m["name"]: m["better"] for m in declared}
    for name, m in metrics.items():
        label = f"{name} = {WORKLOADS[workload].units_name}" if name == "units_per_s" else name
        print(f"  {label:<42} {m['value']:>16.6f} {m['unit']:<6} ({better[name]} is better)")


def run_all(seed: int, seconds: float, out: Path | None) -> int:
    """Run every workload untraced and traced in child processes; print one table."""
    spec = load_spec()
    declared = spec["end_to_end"] + spec["per_layer"]
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for wl in spec["workloads"]:
        entry = report["workloads"][wl["name"]] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", wl["name"], "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{wl['name']} trace={trace} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            info = next(json.loads(l[5:]) for l in lines if l.startswith("info "))
            result = json.loads(lines[-1])
            entry["digest"] = entry.get("digest", info["digest"])
            report["env"] = info["env"]
            entry["traced" if trace else "untraced"] = result
            if not result["correct"] or info["digest"] != entry["digest"]:
                status = 1
        un, tr = entry["untraced"], entry["traced"]
        print(f"== {wl['name']}: correct={un['correct'] and tr['correct']} "
              f"fail_frac={(un['failed'] + tr['failed']) / (un['attempted'] + tr['attempted']):.4f} "
              f"digest={entry['digest'][:16]} (traced run same digest: "
              f"{info['digest'] == entry['digest']})")
        print_metrics(un["metrics"], declared, wl["name"])
        print_metrics(tr["metrics"], declared, wl["name"])
        iters = tr["metrics"]["attack.iters"]["value"]
        if iters:
            print("  per attack iteration (self ms):")
            for name, m in tr["metrics"].items():
                if name.startswith("autodiff.") and name.endswith(".self_ms"):
                    print(f"    {name[:-8]:<40} {m['value'] / iters:10.4f}")
    print("env " + json.dumps(report.get("env")))
    if out:
        out.write_text(json.dumps(report, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="with --workload all: also write the results as JSON")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)

    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['failed']}/{result['attempted']} operations failed over "
          f"{info['repetitions']} repetitions")
    print_metrics(result["metrics"], declared, args.workload)
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
