"""Subcommand CLI tying the pipeline together.

    embedmatch gen-data --out runs/data --seed 7
    embedmatch train    --data runs/data --out runs/model --seed 7
    embedmatch attack   --weights runs/model/weights.vitw --data runs/data \
                        --out runs/attack --epsilon 0.1 --eta 0.05 --kind mil --seed 7
    embedmatch metrics  --weights ... --data ... --records runs/attack/records.jsonl --out runs/attack
    embedmatch project  / detect / report

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical failure.
All randomness derives from --seed (fallback: EMBEDMATCH_SEED, then 0).
Every command but report drops a manifest-<command>.json snapshot beside its
outputs; re-running with the recorded arguments reproduces the outputs bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .attack import AttackError, PairingError, PRMConfig, build_pairs, run_suite
from .data import (ImageParseError, ManifestError, csv_text, dataset_index, generate_synthetic,
                   load_items, require_keys, split, write_dataset, write_file)
from .detector import DetectorConfig, sweep
from .metrics import aggregate, per_record_metrics
from .model import ModelConfig, keep_freed_memory, outputs
from .pca import fit_pca
from .pca import project as pca_project
from .records_io import check_sidecars, read_records, write_records
from .seeding import derive_seed
from .train import TrainConfig, TrainingError, train
from .weights_io import WeightFormatError, load_weights, save_weights

KIND_FLAGS = {"vit": "class_token", "mil": "mil_mean"}
SWEEP_COLUMNS = ("sigma", "clean_rate", "attacked_rate")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("EMBEDMATCH_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"EMBEDMATCH_SEED is not an integer: {env!r}") from None
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return seed


def _config(cls, **fields):
    """Build a config from flag values; a value out of range is a usage error."""
    try:
        return cls(**fields)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _require(path, flag: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"{flag}: no such file or directory: {path}")
    return path


def _manifest_path(data_arg, flag: str = "--data") -> Path:
    path = _require(data_arg, flag)
    if path.is_dir():
        path = path / "manifest.csv"
        if not path.exists():
            raise UsageError(f"{flag}: directory has no manifest.csv: {path.parent}")
    return path


def _write_run_manifest(out_dir: Path, command: str, args, seed: int, outputs) -> None:
    # one manifest per command so runs sharing an output directory never clobber
    payload = {
        "command": command,
        "args": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "seed": seed,
        "tool_version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "outputs": [str(p) for p in outputs],
    }
    write_file(out_dir / f"manifest-{command}.json", json.dumps(payload, indent=2) + "\n")


def _split(ids, seed: int):
    """The dataset split of ``seed`` over image ids in manifest order."""
    return split(list(ids), derive_seed(seed, "split"))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> None:
    seed = _resolve_seed(args)
    for flag, value, least in (("--num-per-class", args.num_per_class, 1),
                               ("--num-classes", args.num_classes, 2),
                               ("--image-size", args.image_size, 1)):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    out = Path(args.out)
    items = generate_synthetic(args.num_per_class, args.num_classes, args.image_size,
                               derive_seed(seed, "synthetic"))
    manifest = write_dataset(items, out)
    _write_run_manifest(out, "gen-data", args, seed, [manifest])
    print(f"wrote {len(items)} images + manifest to {out}")


def cmd_train(args) -> None:
    seed = _resolve_seed(args)
    tcfg = _config(TrainConfig, epochs=args.epochs, batch_size=args.batch_size,
                   learning_rate=args.learning_rate, seed=seed)
    index = dataset_index(_manifest_path(args.data))
    num_classes = (max(label for _, label in index.values()) + 1 if args.num_classes is None
                   else args.num_classes)
    parts = _split(index, seed)  # the test split is never decoded
    by_id = load_items(index, parts.train + parts.validation)
    first = next(iter(by_id.values())).image
    config = _config(
        ModelConfig, image_size=first.shape[0], channels=first.shape[2],
        patch_size=args.patch_size, embed_dim=args.embed_dim, depth=args.depth,
        num_heads=args.num_heads, mlp_ratio=args.mlp_ratio, num_classes=num_classes)
    out = Path(args.out)
    weights, history = train(config, tcfg, [by_id[i] for i in parts.train],
                             [by_id[i] for i in parts.validation])
    weights_path = out / "weights.vitw"
    save_weights(weights, weights_path)
    history.to_csv(out / "history.csv")
    _write_run_manifest(out, "train", args, seed, [weights_path, out / "history.csv"])
    last = history.epochs[-1]
    print(f"trained {tcfg.epochs} epochs; val acc vit={last.val_acc_vit:.3f} "
          f"mil={last.val_acc_mil:.3f}; weights at {weights_path}")


def cmd_attack(args) -> None:
    seed = _resolve_seed(args)
    cfg = _config(PRMConfig, eta=args.eta, epsilon=args.epsilon, max_iters=args.max_iters,
                  conv_threshold=args.conv_threshold, kind=KIND_FLAGS[args.kind],
                  trace_every=args.trace_every)
    for flag, value in (("--num-pairs", args.num_pairs), ("--workers", args.workers)):
        if value is not None and value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    out = Path(args.out)
    weights = load_weights(_require(args.weights, "--weights"))
    index = dataset_index(_manifest_path(args.data))
    by_id = load_items(index, _split(index, seed).test)  # pairs join test images only
    try:
        pairs = build_pairs(list(by_id.values()), derive_seed(seed, "pairs"),
                            limit=args.num_pairs)
    except PairingError as e:
        raise UsageError(f"--data: {e}") from None
    check_sidecars(pairs)  # a data error before any iteration runs, not at write_records
    records, failures = run_suite(pairs, weights, cfg, by_id, workers=args.workers)
    records_path = write_records(records, out)
    _write_run_manifest(out, "attack", args, seed, [records_path])
    for source_id, target_id, message in failures:
        print(f"pair {source_id} -> {target_id} failed: {message}", file=sys.stderr)
    converged = sum(r.converged for r in records)
    print(f"attacked {len(records)}/{len(pairs)} pairs ({converged} converged) "
          f"-> {records_path}")


def _load_inputs(weights_path, data_path, records_path, via: str | None = None):
    """Weights, the dataset index and records shared by the analysis commands and report.

    No image is decoded here.  Messages name each path's flag, or ``via`` when all
    three came from one place.
    """
    weights_flag, data_flag, records_flag = (via or f for f in ("--weights", "--data", "--records"))
    weights = load_weights(_require(weights_path, weights_flag))
    index = dataset_index(_manifest_path(data_path, data_flag))
    records = read_records(_require(records_path, records_flag))
    if not records:
        raise UsageError(f"{records_flag}: no records in {records_path}")
    missing = next((i for r in records for i in (r.source_id, r.target_id) if i not in index), None)
    if missing is not None:
        raise ManifestError(f"records name image {missing!r}, which is not in the dataset")
    return weights, index, records


def _embed_once(weights, index, records, seed: int):
    """(items by id, test ids, clean outputs by image id, optimized outputs).

    Decodes and embeds, once each and in one outputs pass, the test split of
    ``seed`` and then each image a record names; the optimized images take a second pass.
    """
    test_ids = _split(index, seed).test
    by_id = load_items(index, test_ids + [i for r in records for i in (r.source_id, r.target_id)])
    clean = outputs([it.image for it in by_id.values()], weights)
    return (by_id, test_ids, {key: dict(zip(by_id, rows)) for key, rows in clean.items()},
            outputs([r.image for r in records], weights))


def _analyze(weights, index, records, kind: str, seed: int):
    """(aggregate report, per-record rows), each computed once; shared by metrics and report."""
    by_id, test_ids, clean, optimized = _embed_once(weights, index, records, seed)
    correct = sum(int(clean[f"logits.{kind}"][i].argmax() == by_id[i].label) for i in test_ids)
    rows = per_record_metrics(records, items_by_id=by_id, clean=clean[kind],
                              optimized=optimized[kind])
    return aggregate(records, rows, correct / len(test_ids)), rows


def cmd_metrics(args) -> None:
    seed = _resolve_seed(args)
    out = Path(args.out)
    weights, index, records = _load_inputs(args.weights, args.data, args.records)
    report, rows = _analyze(weights, index, records, KIND_FLAGS[args.kind], seed)
    metrics_path = out / "metrics.json"
    write_file(metrics_path, json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n")
    names = list(rows[0].__dataclass_fields__)
    write_file(out / "per_record.csv",
               csv_text([names] + [[getattr(m, f) for f in names] for m in rows]))
    _write_run_manifest(out, "metrics", args, seed, [metrics_path, out / "per_record.csv"])
    print(f"clean acc {report.clean_accuracy:.3f} -> attacked {report.attacked_accuracy:.3f}, "
          f"msr {report.msr:.3f}; report at {metrics_path}")


def cmd_project(args) -> None:
    seed = _resolve_seed(args)
    out = Path(args.out)
    weights, index, records = _load_inputs(args.weights, args.data, args.records)
    kind = KIND_FLAGS[args.kind]
    _, test_ids, clean, optimized = _embed_once(weights, index, records, seed)
    by_image = clean[kind]
    basis = fit_pca([by_image[i] for i in test_ids], k=6)
    table = [["id", "role"] + [f"pc{i}" for i in range(1, 7)]]
    for r, e1 in zip(records, optimized[kind]):
        for row_id, role, e in ((r.source_id, "original", by_image[r.source_id]),
                                (f"{r.source_id}->{r.target_id}", "optimized", e1),
                                (r.target_id, "target", by_image[r.target_id])):
            table.append([row_id, role] + [repr(float(c)) for c in pca_project(e, basis)])
    path = out / "projections.csv"
    write_file(path, csv_text(table))
    _write_run_manifest(out, "project", args, seed, [path])
    print(f"wrote projections for {len(records)} attack triples to {path}")


def cmd_detect(args) -> None:
    seed = _resolve_seed(args)
    try:
        sigmas = [float(s) for s in args.sigmas.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--sigmas: expected comma-separated floats, got {args.sigmas!r}") from None
    if not sigmas:
        raise UsageError("--sigmas: empty list")
    for sigma in sigmas:
        _config(DetectorConfig, sigma=sigma, draws=args.draws)
    out = Path(args.out)
    weights, index, records = _load_inputs(args.weights, args.data, args.records)
    sources = load_items(index, [r.source_id for r in records])
    rows = sweep([sources[r.source_id].image for r in records], [r.image for r in records],
                 sigmas, weights, KIND_FLAGS[args.kind], derive_seed(seed, "detector"),
                 draws=args.draws)
    path = out / "sweep.csv"
    write_file(path, csv_text([SWEEP_COLUMNS] + [
        (repr(row.sigma), repr(row.clean_flag_rate), repr(row.attacked_flag_rate))
        for row in rows]))
    _write_run_manifest(out, "detect", args, seed, [path])
    best = max(rows, key=lambda r: r.attacked_flag_rate - r.clean_flag_rate)
    print(f"best margin at sigma={best.sigma}: attacked {best.attacked_flag_rate:.3f} "
          f"vs clean {best.clean_flag_rate:.3f}; table at {path}")


def _fmt_pct(x: float) -> str:
    return f"{100.0 * x:5.1f}%"


def _summary_text(report, attack_args, sweep_rows) -> str:
    eps = attack_args.get("epsilon", "?")
    lines = [
        f"== Accuracy under attack (kind={attack_args['kind']}, epsilon={eps}) ==",
        f"records            {report.n_records}",
        f"clean accuracy     {_fmt_pct(report.clean_accuracy)}",
        f"attacked accuracy  {_fmt_pct(report.attacked_accuracy)}"
        f"   (drop {100.0 * report.accuracy_drop:.1f} pp)",
        f"match success rate {_fmt_pct(report.msr)}",
        "",
        "== Image quality ==",
        "pairing               mean PSNR      mean SSIM",
        f"original->optimized   {report.mean_psnr_original:7.2f} dB    "
        f"{report.mean_ssim_original:.3f}",
        f"target->optimized     {report.mean_psnr_target:7.2f} dB    "
        f"{report.mean_ssim_target:.3f}",
        f"(infinite PSNR values excluded from means: {report.psnr_excluded})",
        "",
        "== Embedding cosine similarity ==",
        f"optimized<->original  {report.mean_cosine_original:.3f}",
        f"optimized<->target    {report.mean_cosine_target:.3f}",
    ]
    if sweep_rows:
        lines += ["", "== Detector sweep ==", "sigma    clean rate   attacked rate"]
        for row in sweep_rows:
            lines.append(f"{row['sigma']:<8g} {row['clean_rate']:<12.3f} "
                         f"{row['attacked_rate']:.3f}")
    return "\n".join(lines) + "\n"


def _sweep_cell(text: str, where: str, rate: bool) -> float:
    """A sweep.csv cell as a float: a rate in [0, 1], a sigma finite and >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0 and (value <= 1.0 or not rate)):
        raise ManifestError(f"{where}: expected a finite number "
                            f"{'in [0, 1]' if rate else '>= 0'}, got {text!r}")
    return value


def cmd_report(args) -> None:
    run_dir = _require(args.run, "--run")
    # a path given on the command line must exist; the run directory's own files are optional
    sweep_path = _require(args.sweep, "--sweep") if args.sweep else run_dir / "sweep.csv"
    projections_path = (_require(args.projections, "--projections") if args.projections
                        else run_dir / "projections.csv")
    run_manifest = _require(run_dir / "manifest-attack.json", "--run")
    manifest = json.loads(run_manifest.read_text())
    require_keys(manifest, {"args": dict, "seed": int}, str(run_manifest))
    attack_args, seed = manifest["args"], manifest["seed"]
    if seed < 0:
        raise ManifestError(f"{run_manifest}: key 'seed': must be >= 0, got {seed}")
    require_keys(attack_args, {"weights": str, "data": str, "kind": object},
                 f"{run_manifest}: args")
    if not isinstance(attack_args["kind"], str) or attack_args["kind"] not in KIND_FLAGS:
        raise ManifestError(f"{run_manifest}: args: unknown kind {attack_args['kind']!r}")
    sweep_rows = []
    if sweep_path.exists():
        with open(sweep_path, newline="") as fh:
            for n, row in enumerate(csv.DictReader(fh), start=2):
                require_keys(row, dict.fromkeys(SWEEP_COLUMNS, str), f"{sweep_path}: row {n}")
                sweep_rows.append({k: _sweep_cell(row[k], f"{sweep_path}: row {n}: column {k!r}",
                                                  rate=k != "sigma") for k in SWEEP_COLUMNS})
    weights, index, records = _load_inputs(attack_args["weights"], attack_args["data"],
                                           run_dir / "records.jsonl", via="--run")
    report, _ = _analyze(weights, index, records, KIND_FLAGS[attack_args["kind"]], seed)
    projections_ref = str(projections_path) if projections_path.exists() else None
    payload = {
        "attack": {"args": attack_args, "seed": seed},
        "metrics": report.to_dict(),
        "detector_sweep": sweep_rows,
        "projections_csv": projections_ref,
        "records_file": str(run_dir / "records.jsonl"),
    }
    out = Path(args.out) if args.out else run_dir
    report_path = out / "report.json"
    write_file(report_path, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    summary = _summary_text(report, attack_args, sweep_rows)
    write_file(out / "summary.txt", summary)
    print(summary)
    print(f"report at {report_path}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (fallback: EMBEDMATCH_SEED, then 0)")


def _add_analysis_flags(p):
    p.add_argument("--weights", required=True, help="weights.vitw file")
    p.add_argument("--data", required=True, help="dataset directory or manifest.csv")
    p.add_argument("--records", required=True, help="records.jsonl from an attack run")
    p.add_argument("--kind", choices=sorted(KIND_FLAGS), default="mil")
    p.add_argument("--out", required=True)
    _add_seed(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="embedmatch", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="generate a synthetic fundus-like dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--num-per-class", type=int, default=300)
    p.add_argument("--num-classes", type=int, default=3)
    p.add_argument("--image-size", type=int, default=32)
    _add_seed(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the two-headed ViT classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--patch-size", type=int, default=8)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--num-heads", type=int, default=4)
    p.add_argument("--mlp-ratio", type=int, default=2)
    p.add_argument("--num-classes", type=int, default=None,
                   help="default: inferred from manifest labels")
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    _add_seed(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="run the matching attack over test-split pairs")
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eta", type=float, default=0.05, help="gradient-descent step size")
    p.add_argument("--epsilon", type=float, default=0.1, help="max per-pixel change")
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--conv-threshold", type=float, default=None,
                   help="absolute embedding-distance stop; default 0.01*||target||")
    p.add_argument("--kind", choices=sorted(KIND_FLAGS), default="mil")
    p.add_argument("--trace-every", type=int, default=25)
    p.add_argument("--num-pairs", type=int, default=None,
                   help="attack a random subset of this size (default: all test images)")
    p.add_argument("--workers", type=int, default=1)
    _add_seed(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("metrics", help="aggregate metrics over an attack run")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("project", help="PCA projections of original/optimized/target embeddings")
    _add_analysis_flags(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("detect", help="noise-consistency detector sweep")
    _add_analysis_flags(p)
    p.add_argument("--sigmas", default="0.01,0.02,0.05,0.1")
    p.add_argument("--draws", type=int, default=1)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("report", help="join records, metrics, projections and sweep")
    p.add_argument("--run", required=True, help="attack output directory")
    p.add_argument("--out", default=None, help="default: the run directory")
    p.add_argument("--sweep", default=None, help="sweep.csv (default: <run>/sweep.csv)")
    p.add_argument("--projections", default=None,
                   help="projections.csv (default: <run>/projections.csv)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return 1
        args.func(args)
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (TrainingError, AttackError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except (ImageParseError, ManifestError, WeightFormatError, json.JSONDecodeError,
            ValueError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
