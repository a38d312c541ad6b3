"""Command-line entry points: `lifedrop train` and `lifedrop compare`."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from lifedrop.harness import KINDS, BlobSpec, RegularizerConfig, RunConfig, compare, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lifedrop",
                                     description="Train dense classifiers under evolving "
                                                 "cellular-automaton dropout and fixed baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run one training experiment")
    train.add_argument("--arch", default="arch1",
                       help="arch1 | arch2 | arch3 | custom:<w1,w2,...>")
    train.add_argument("--reg", default="none", choices=KINDS)
    train.add_argument("--rate", type=float, default=RegularizerConfig.rate,
                       help="drop rate for classical, gaussian and alpha; dynamic ignores it "
                            "(its board starts at --lattice-density)")
    train.add_argument("--epochs", type=int, default=RunConfig.epochs)
    train.add_argument("--batch", type=int, default=RunConfig.batch_size)
    train.add_argument("--lr", type=float, default=RunConfig.learning_rate)
    train.add_argument("--seed", type=int, default=RunConfig.seed)
    source = train.add_mutually_exclusive_group(required=True)
    source.add_argument("--data-dir", help="directory holding the six binary image batches")
    source.add_argument("--synthetic", action="store_true",
                        help="train on generated Gaussian blobs instead of image files")
    train.add_argument("--out", required=True, help="output directory for metrics and snapshots")
    train.add_argument("--snapshot-epochs", default=",".join(map(str, RunConfig.snapshot_epochs)),
                       help="comma-separated epochs at which to dump the lattice (dynamic only)")
    train.add_argument("--patience", type=int, default=RunConfig.patience)
    train.add_argument("--min-delta", type=float, default=RunConfig.min_delta)
    train.add_argument("--reactivation-fraction", type=float,
                       default=RegularizerConfig.reactivation_fraction)
    train.add_argument("--lattice-density", type=float, default=RegularizerConfig.lattice_density,
                       help="initial live-cell density of the dynamic board")
    train.add_argument("--blob-classes", type=int, default=BlobSpec.classes)
    train.add_argument("--blob-dim", type=int, default=BlobSpec.dim)
    train.add_argument("--blob-per-class", type=int, default=BlobSpec.per_class)
    train.add_argument("--blob-separation", type=float, default=BlobSpec.separation)

    cmp = sub.add_parser("compare", help="summarize finished run directories into summary.csv")
    cmp.add_argument("run_dirs", nargs="+", metavar="dir")
    cmp.add_argument("--out", default="summary.csv")
    return parser


def _parse_snapshot_epochs(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse --snapshot-epochs {text!r}") from None


def _train(args) -> int:
    reg = RegularizerConfig(kind=args.reg, rate=args.rate,
                            lattice_density=args.lattice_density,
                            reactivation_fraction=args.reactivation_fraction,
                            seed=args.seed)
    blobs = None
    if args.synthetic:
        blobs = BlobSpec(per_class=args.blob_per_class, classes=args.blob_classes,
                         dim=args.blob_dim, separation=args.blob_separation)
    config = RunConfig(architecture=args.arch, regularizer=reg, output_dir=args.out,
                       epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr,
                       seed=args.seed, snapshot_epochs=_parse_snapshot_epochs(args.snapshot_epochs),
                       patience=args.patience, min_delta=args.min_delta, data_dir=args.data_dir,
                       blobs=blobs)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run says so once, as its error
        history = run(config)
    if history:
        last = history[-1]
        print(f"epoch {last.epoch}: train_acc={last.train_acc:.4f} val_acc={last.val_acc:.4f} "
              f"gap={last.gap:.4f}")
    print(f"wrote {args.out}")
    return 0


def _compare(args) -> int:
    rows = compare(args.run_dirs, args.out)
    for name, kind, _, _, train_acc, val_acc, _, gap in rows:
        print(f"{name} [{kind}]: train_acc={train_acc:.4f} val_acc={val_acc:.4f} gap={gap:.4f}")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return _train(args)
        return _compare(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
