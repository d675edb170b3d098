"""The benchmark's workloads: set-up, one timed repetition, output checks.

Every workload drives ``embedmatch.cli.main`` in-process with ``--workers 1``.
Images come from ``gen-data`` with the workload seed, and the CLI's own
``--seed`` derives the split and the attack pairs from it.  Model weights come
from ``init_weights`` with one fixed seed: the scale of the initial weights
sets how far the attack has to travel, and across init seeds one suite's
iteration count changed tenfold, which would swamp every timing.

A repetition runs the same commands on the same inputs every time, so its
outputs must hash the same every time; the caller compares the digests.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from embedmatch import cli, data, model, records_io, weights_io

MODEL_SEED = 3
KIND = "mil"
NUM_CLASSES = 3
EPSILON = 0.1
# the acceptance suite's tolerance: max_abs_delta legitimately sits one
# float32 ulp above epsilon
EPSILON_TOL = 1e-6
# float64 rounding: the cosine of two equal embeddings comes out as 1 + 2.2e-16
RANGE_TOL = 1e-12


class SetupError(RuntimeError):
    """A set-up step failed; the workload cannot run."""


@dataclass
class Outcome:
    attempted: int
    failed: int
    units: int          # work behind units_per_s: iterations, samples or records
    records: int = 0    # attack records the repetition produced or analysed
    iters: int = 0      # attack iterations the repetition ran
    converged: int = 0  # records that met the convergence threshold


def run_cli(argv: list[str]) -> int:
    """One in-process ``embedmatch`` command; its console output is discarded."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code or err.getvalue():
        sys.stderr.write(f"embedmatch {argv[0]} exited {code}: {err.getvalue()}")
    return code


def _setup_cli(argv: list[str]) -> None:
    code = run_cli(argv)
    if code:
        raise SetupError(f"set-up command {argv[0]} exited {code}")


def _gen_data(inputs: Path, seed: int, per_class: int) -> None:
    _setup_cli(["gen-data", "--out", str(inputs / "data"), "--seed", str(seed),
                "--num-per-class", str(per_class), "--num-classes", str(NUM_CLASSES)])


def _save_model(inputs: Path) -> None:
    weights = weights_io.init_weights(model.ModelConfig(), MODEL_SEED)
    weights_io.save_weights(weights, inputs / "weights.vitw")


def _split_sizes(n: int):
    parts = data.split(range(n), 0)
    return len(parts.train), len(parts.validation), len(parts.test)


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _matching_loss(image, target_image, weights) -> float:
    """0.5 * ||f(x) - f(x_tgt)||^2 rounded exactly as the attack rounds it."""
    kind = cli.KIND_FLAGS[KIND]
    emb = model.embed(image, weights, kind).values
    tgt = model.embed(target_image, weights, kind).values
    diff = (emb + tgt * np.float32(-1.0)).astype(np.float64)
    return 0.5 * float(diff @ diff)


class AttackSuite:
    """Matching attack over every test pair; pairs stop at uneven iterations."""

    name = "attack-suite"
    units_name = "attack.iters_per_s"
    PER_CLASS = 80       # 240 images, 48 in the test split
    NUM_PAIRS = 48
    MAX_ITERS = 40
    CONV_THRESHOLD = 0.35

    def setup(self, inputs: Path, seed: int) -> None:
        _gen_data(inputs, seed, self.PER_CLASS)
        _save_model(inputs)

    def commands(self, inputs: Path, out: Path, seed: int) -> list[list[str]]:
        return [["attack", "--weights", str(inputs / "weights.vitw"),
                 "--data", str(inputs / "data"), "--out", str(out), "--kind", KIND,
                 "--epsilon", str(EPSILON), "--eta", "0.05",
                 "--max-iters", str(self.MAX_ITERS),
                 "--conv-threshold", str(self.CONV_THRESHOLD),
                 "--num-pairs", str(self.NUM_PAIRS), "--workers", "1", "--seed", str(seed)]]

    def check(self, inputs: Path, out: Path, codes: list[int]) -> Outcome:
        n = self.NUM_PAIRS
        if codes != [0]:
            return Outcome(n, n, 0)
        records = records_io.read_records(out / "records.jsonl")
        items = {it.id: it for it in data.load_dataset(inputs / "data" / "manifest.csv")}
        weights = weights_io.load_weights(inputs / "weights.vitw")
        # pairs missing from the records are run_suite's failures
        failed = n - len(records)
        for r in records:
            failed += not self._record_ok(r, items, weights)
        iters = sum(r.iterations_used for r in records)
        return Outcome(n, failed, iters, records=len(records), iters=iters,
                       converged=sum(bool(r.converged) for r in records))

    @staticmethod
    def _record_ok(r, items, weights) -> bool:
        x0 = items[r.source_id].image.astype(np.float64)
        x = r.image.astype(np.float64)
        if np.max(np.abs(x - x0)) > EPSILON + EPSILON_TOL:
            return False
        if x.min() < 0.0 or x.max() > 1.0:
            return False
        if not r.trace or not all(_finite((p.loss, p.cosine, p.mean_abs_delta))
                                  for p in r.trace):
            return False
        # trace[0] is iteration 1, the unperturbed source image
        best = _matching_loss(r.image, items[r.target_id].image, weights)
        return best <= r.trace[0].loss


class Train:
    """Joint two-head training: backward with weights watched, Adam, evaluate."""

    name = "train"
    units_name = "train.samples_per_s"
    PER_CLASS = 20       # 60 images: 42 train, 6 validation
    EPOCHS = 3

    def setup(self, inputs: Path, seed: int) -> None:
        _gen_data(inputs, seed, self.PER_CLASS)

    def commands(self, inputs: Path, out: Path, seed: int) -> list[list[str]]:
        return [["train", "--data", str(inputs / "data"), "--out", str(out),
                 "--epochs", str(self.EPOCHS), "--seed", str(seed)]]

    def check(self, inputs: Path, out: Path, codes: list[int]) -> Outcome:
        n_train = _split_sizes(NUM_CLASSES * self.PER_CLASS)[0]
        samples = self.EPOCHS * n_train
        if codes != [0]:
            return Outcome(1, 1, samples)
        with (out / "history.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        ok = len(rows) == self.EPOCHS and all(_finite(row.values()) for row in rows)
        weights = weights_io.load_weights(out / "weights.vitw")
        ok = ok and all(np.isfinite(t).all() for t in weights.tensors.values())
        return Outcome(1, int(not ok), samples)


class Analyze:
    """Forward-only analysis of existing records: metrics, project, detect, report."""

    name = "analyze"
    units_name = "analyze.records_per_s"
    PER_CLASS = 20       # 60 images, 12 in the test split: 12 records
    SETUP_ITERS = 3
    SIGMAS = 4           # the detect command's default sigma list

    def setup(self, inputs: Path, seed: int) -> None:
        _gen_data(inputs, seed, self.PER_CLASS)
        _save_model(inputs)
        _setup_cli(["attack", "--weights", str(inputs / "weights.vitw"),
                    "--data", str(inputs / "data"), "--out", str(inputs / "attack"),
                    "--kind", KIND, "--epsilon", str(EPSILON), "--eta", "0.05",
                    "--max-iters", str(self.SETUP_ITERS), "--conv-threshold", "0",
                    "--workers", "1", "--seed", str(seed)])

    def commands(self, inputs: Path, out: Path, seed: int) -> list[list[str]]:
        common = ["--weights", str(inputs / "weights.vitw"), "--data", str(inputs / "data"),
                  "--records", str(inputs / "attack" / "records.jsonl"), "--kind", KIND,
                  "--out", str(out), "--seed", str(seed)]
        return [["metrics"] + common, ["project"] + common, ["detect"] + common,
                ["report", "--run", str(inputs / "attack"), "--out", str(out),
                 "--sweep", str(out / "sweep.csv"),
                 "--projections", str(out / "projections.csv")]]

    def check(self, inputs: Path, out: Path, codes: list[int]) -> Outcome:
        n = _split_sizes(NUM_CLASSES * self.PER_CLASS)[2]
        checks = [self._metrics_ok, self._projections_ok, self._sweep_ok, self._report_ok]
        failed = 0
        for code, ok in zip(codes, checks):
            try:
                failed += code != 0 or not ok(out, n)
            except (OSError, ValueError, KeyError):
                failed += 1
        return Outcome(len(codes), failed, n, records=n)

    @staticmethod
    def _metrics_ok(out: Path, n: int) -> bool:
        json.loads((out / "metrics.json").read_text())
        with (out / "per_record.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        bounded = [float(row[k]) for row in rows
                   for k in ("ssim_original", "ssim_target", "cosine_original", "cosine_target")]
        return len(rows) == n and all(abs(v) <= 1.0 + RANGE_TOL for v in bounded)

    @staticmethod
    def _projections_ok(out: Path, n: int) -> bool:
        with (out / "projections.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        coords = [row[f"pc{i}"] for row in rows for i in range(1, 7)]
        return len(rows) == 3 * n and _finite(coords)

    def _sweep_ok(self, out: Path, n: int) -> bool:
        with (out / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        rates = [float(row[k]) for row in rows for k in ("clean_rate", "attacked_rate")]
        return len(rows) == self.SIGMAS and all(0.0 <= v <= 1.0 for v in rates)

    @staticmethod
    def _report_ok(out: Path, n: int) -> bool:
        report = json.loads((out / "report.json").read_text())
        return report["metrics"]["n_records"] == n and bool((out / "summary.txt").read_text())


WORKLOADS = {w.name: w for w in (AttackSuite(), Train(), Analyze())}
