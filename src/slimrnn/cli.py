"""Command-line harness: train, grid, count-params, grad-check.

Exit codes: 0 success, 1 failed check, 2 bad configuration, 3 data problems.

Before any work, ``main`` sets the OpenBLAS bundled with numpy (found in
``numpy.libs`` next to the numpy package) to one thread. A GEMM's rounding
depends on how many threads split it, so this makes every command
reproduce bit for bit at any ``OPENBLAS_NUM_THREADS``. A BLAS that exports
none of ``BLAS_SET_THREADS`` runs unpinned, with one line on stderr saying
so. Python callers of ``harness.train`` keep their own thread setting.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .cells import GATES, Activation, Variant, layout
from .data import NUM_CLASSES, DataError
from .gradcheck import REL_TOL, check_all
from .harness import DEFAULT_ETAS, ConfigError, TrainConfig, best_of, run_grid, train

MNIST_INPUT_DIM = 28

VARIANT_CHOICES = [v.value for v in Variant]
ACTIVATION_CHOICES = [a.value for a in Activation]
GRID_VARIANTS = [v.value for v in Variant if GATES[v] is not None]
DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
# thread-count setters of the ILP64 OpenBLAS that numpy wheels bundle: numpy >= 2.0, then 1.22-1.26
BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")


def openblas_function(name: str):
    """Function ``name`` of numpy's bundled OpenBLAS, named like the first of ``BLAS_SET_THREADS`` it exports, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            blas = ctypes.CDLL(str(path))
        except OSError:
            continue
        for setter in BLAS_SET_THREADS:
            if hasattr(blas, setter):
                return getattr(blas, setter.replace("set_num_threads", name))
    return None


def _pin_blas() -> None:
    """Set numpy's bundled OpenBLAS to one thread, or say on stderr that it stays unpinned."""
    set_threads = openblas_function("set_num_threads")
    if set_threads is None:
        print("note: numpy's BLAS exports no known thread setter; it runs unpinned, "
              "so results may differ between thread counts", file=sys.stderr)
    else:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=DEFAULTS["epochs"])
    p.add_argument("--batch-size", type=int, default=DEFAULTS["batch_size"])
    p.add_argument("--hidden", dest="n_h", metavar="HIDDEN", type=int, default=DEFAULTS["n_h"], help="hidden units")
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    p.add_argument("--train-limit", type=int, default=DEFAULTS["train_limit"])
    p.add_argument("--test-limit", type=int, default=DEFAULTS["test_limit"])
    p.add_argument("--data-dir", default=DEFAULTS["data_dir"], help="directory with the MNIST IDX files")


def _config(args: argparse.Namespace, **fields) -> TrainConfig:
    """TrainConfig from the options whose dest is one of its fields, plus ``fields``."""
    return TrainConfig(**{k: v for k, v in vars(args).items() if k in DEFAULTS}, **fields)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimrnn",
        description="Train and compare parameter-reduced LSTM variants on row-wise MNIST.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one variant and stream per-epoch metrics")
    p.add_argument("--variant", required=True, choices=VARIANT_CHOICES)
    p.add_argument("--activation", required=True, choices=ACTIVATION_CHOICES)
    p.add_argument("--eta", type=float, default=DEFAULTS["eta"], help="learning rate")
    _add_common(p)
    p.add_argument("--out", dest="metrics_path", metavar="OUT", default=None, help="metrics CSV path")

    p = sub.add_parser("grid", help="train a variant x activation x eta grid")
    p.add_argument("--variant", dest="variants", action="append", choices=VARIANT_CHOICES,
                   help=f"repeatable; default: {', '.join(GRID_VARIANTS)}")
    p.add_argument("--activation", dest="activations", action="append", choices=ACTIVATION_CHOICES,
                   help=f"repeatable; default: {', '.join(ACTIVATION_CHOICES)}")
    p.add_argument("--eta", dest="etas", metavar="ETA", action="append", type=float,
                   help=f"repeatable; default: {', '.join(f'{eta:g}' for eta in DEFAULT_ETAS)}")
    _add_common(p)
    p.add_argument("--out", default="grid-out", help="output directory")

    p = sub.add_parser("count-params", help="trainable parameter counts per variant")
    p.add_argument("--variant", choices=VARIANT_CHOICES, default=None)
    p.add_argument("--hidden", dest="n_h", metavar="HIDDEN", type=int, default=DEFAULTS["n_h"])

    p = sub.add_parser("grad-check", help="verify BPTT gradients against finite differences")
    p.add_argument("--seed", type=int, default=0, help="first of --trials consecutive seeds")
    p.add_argument("--trials", type=int, default=3, help="seeds per configuration")

    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    metrics = train(_config(args), verbose=True)
    best = best_of(metrics)
    print(f"best train_acc={best.best_train:.4f}  "
          f"best test_acc={best.best_test:.4f} (epoch {best.best_test_epoch})")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    variants = args.variants or GRID_VARIANTS
    activations = args.activations or ACTIVATION_CHOICES
    etas = args.etas or list(DEFAULT_ETAS)
    base = _config(args, variant=variants[0], activation=activations[0])
    summary = run_grid(variants, activations, etas, base, args.out, verbose=True)
    print(f"summary written to {summary}")
    return 0


def _cmd_count_params(args: argparse.Namespace) -> int:
    if args.n_h < 1:
        raise ConfigError("--hidden must be at least 1")
    wanted = [Variant(args.variant)] if args.variant else list(Variant)
    for variant in wanted:
        print(f"{variant.value} {layout(variant, MNIST_INPUT_DIM, args.n_h, NUM_CLASSES).size}")
    return 0


def _cmd_grad_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    seeds = tuple(range(args.seed, args.seed + args.trials))
    # at B = 1 each step's products are matrix-vector ones, at B > 1 GEMMs, as in training
    results = [(B, r) for B in (1, 3) for r in check_all(seeds=seeds, batch_size=B)]
    for B, r in results:
        print(
            f"{r.variant.value:6s} {r.activation.value:7s} seed={r.seed:<3d} B={B} "
            f"max_rel_err={r.max_rel_err:.3e} compared={r.compared:<4d} "
            f"skipped={r.skipped:<3d} {'PASS' if r.passed else 'FAIL'}"
        )
    failed = sum(not r.passed for _, r in results)
    print(f"tolerance {REL_TOL:g}: {'all passed' if failed == 0 else f'{failed} FAILED'}")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _pin_blas()
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
