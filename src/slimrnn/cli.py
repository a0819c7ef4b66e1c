"""Command-line harness: train, grid, count-params, grad-check.

Exit codes: 0 success, 1 failed check, 2 bad configuration, 3 data problems.
"""

from __future__ import annotations

import argparse
import sys

from .cells import Activation, Variant, VariantSpec, param_count
from .data import NUM_CLASSES, DataError
from .gradcheck import REL_TOL, check_all
from .harness import DEFAULT_ETAS, ConfigError, TrainConfig, best_of, run_grid, train

MNIST_INPUT_DIM = 28

VARIANT_CHOICES = [v.value for v in Variant]
ACTIVATION_CHOICES = [a.value for a in Activation]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--hidden", type=int, default=100, help="hidden units")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-limit", type=int, default=None)
    p.add_argument("--test-limit", type=int, default=None)
    p.add_argument("--data-dir", default="data", help="directory with the MNIST IDX files")


def _config(args: argparse.Namespace, **fields) -> TrainConfig:
    """TrainConfig from the options of _add_common, plus ``fields``."""
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        n_h=args.hidden,
        seed=args.seed,
        train_limit=args.train_limit,
        test_limit=args.test_limit,
        data_dir=args.data_dir,
        **fields,
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimrnn",
        description="Train and compare parameter-reduced LSTM variants on row-wise MNIST.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one variant and stream per-epoch metrics")
    p.add_argument("--variant", required=True, choices=VARIANT_CHOICES)
    p.add_argument("--activation", required=True, choices=ACTIVATION_CHOICES)
    p.add_argument("--eta", type=float, default=1e-3, help="learning rate")
    _add_common(p)
    p.add_argument("--out", default=None, help="metrics CSV path")

    p = sub.add_parser("grid", help="train a variant x activation x eta grid")
    p.add_argument("--variant", action="append", choices=VARIANT_CHOICES,
                   help="repeatable; default: the six gated variants")
    p.add_argument("--activation", action="append", choices=ACTIVATION_CHOICES,
                   help="repeatable; default: tanh, sigmoid, relu")
    p.add_argument("--eta", action="append", type=float,
                   help="repeatable; default: 1e-4, 1e-3, 2e-3")
    _add_common(p)
    p.add_argument("--out", default="grid-out", help="output directory")

    p = sub.add_parser("count-params", help="trainable parameter counts per variant")
    p.add_argument("--variant", choices=VARIANT_CHOICES, default=None)
    p.add_argument("--hidden", type=int, default=100)

    p = sub.add_parser("grad-check", help="verify BPTT gradients against finite differences")
    p.add_argument("--seed", type=int, default=0, help="first of --trials consecutive seeds")
    p.add_argument("--trials", type=int, default=3, help="seeds per configuration")

    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    config = _config(args, variant=args.variant, activation=args.activation, eta=args.eta,
                     metrics_path=args.out)
    metrics = train(config, verbose=True)
    best = best_of(metrics)
    print(f"best train_acc={best.best_train:.4f}  "
          f"best test_acc={best.best_test:.4f} (epoch {best.best_test_epoch})")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    variants = args.variant or [v.value for v in Variant if VariantSpec.make(v, "tanh").gates is not None]
    activations = args.activation or ACTIVATION_CHOICES
    etas = args.eta or list(DEFAULT_ETAS)
    base = _config(args, variant=variants[0], activation=activations[0])
    summary = run_grid(variants, activations, etas, base, args.out, verbose=True)
    print(f"summary written to {summary}")
    return 0


def _cmd_count_params(args: argparse.Namespace) -> int:
    if args.hidden < 1:
        raise ConfigError("--hidden must be at least 1")
    wanted = [Variant(args.variant)] if args.variant else list(Variant)
    for variant in wanted:
        spec = VariantSpec.make(variant, "tanh")
        n = param_count(spec, MNIST_INPUT_DIM, args.hidden, NUM_CLASSES)
        print(f"{variant.value} {n}")
    return 0


def _cmd_grad_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    results = check_all(seeds=tuple(range(args.seed, args.seed + args.trials)))
    for r in results:
        print(
            f"{r.variant.value:6s} {r.activation.value:7s} seed={r.seed:<3d} "
            f"max_rel_err={r.max_rel_err:.3e} compared={r.compared:<4d} "
            f"skipped={r.skipped:<3d} {'PASS' if r.passed else 'FAIL'}"
        )
    failed = sum(not r.passed for r in results)
    print(f"tolerance {REL_TOL:g}: {'all passed' if failed == 0 else f'{failed} FAILED'}")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "grid": _cmd_grid,
        "count-params": _cmd_count_params,
        "grad-check": _cmd_grad_check,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
