"""Per-phase timings of the engine's public calls, a change against its parent in one process, into one BENCH json.

Run from the root of a checkout, with the parent's ``src`` extracted beside it:

    mkdir -p ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python bench/phases.py --against ../parent/src --out BENCH_30.json

Three copies of slimrnn load side by side as packages of their own names,
with caches of their own (``src`` imports only relatively), and leave
``sys.modules["slimrnn"]`` alone: side A from ``--against``, and side B and
its control B' (``b2``), a second copy of B, from this checkout's ``src``.
B's ``cli._pin_blas`` pins BLAS to one thread.
The data are seeded synthetic 28 x 28 uint8 images, about 15% ink. Per
variant:

* at the paper's shapes (T = 28, n_in = 28, n_h = 100, batch 32, tanh): ms
  per call of ``forward_sequence``, ``softmax_xent``, ``backward_sequence``
  and ``rmsprop_step``, and ms per example of the optimizer walk
  (``batch_loss_and_grads`` then ``rmsprop_step`` over one epoch's
  training batches) and of ``harness.evaluate``;
* at ``check_all``'s shapes (n_in = 3, n_h = 5, n_out = 4, T = 4): ms per
  configuration of ``check_all`` over 3 activations x seeds 0-2 at batch
  sizes 1 and 3 (``check_all_b1``, ``check_all_b3``), as ``slimrnn
  grad-check`` runs it.

Each timing runs ``--repeat`` rounds; in a round every side makes the same
number of calls, as many as fill ROUND_S, in an order that rotates by one
per round. ``rmsprop_step``'s operands are 64-byte aligned, since their
heap placement moves that call by more than the control band. ``ab`` holds
per variant and timing each side's min ms and ``compare``'s record;
``context`` the peak RSS, numpy's version, OpenBLAS's config string and
core name, and the line count of side A's and side B's ``slimrnn/*.py``.
``--out`` must not exist, but its directory must; ``--tiny`` is for smoke
runs.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FULL = {"rows": 28, "cols": 28, "n_h": 100, "batch": 32, "train": 256, "test": 256,
        "gradcheck": {"n_in": 3, "n_h": 5, "n_out": 4, "T": 4}, "gradcheck_seeds": [0, 1, 2]}
TINY = {"rows": 3, "cols": 4, "n_h": 3, "batch": 4, "train": 8, "test": 6,
        "gradcheck": {"n_in": 2, "n_h": 2, "n_out": 3, "T": 2}, "gradcheck_seeds": [0]}
N_OUT = 10
ETA = 1e-3
ROUND_S = 0.02
DARK_BELOW = 218  # uniform bytes under this become background: about 15% ink


def aligned(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` that starts on a 64-byte boundary."""
    buf = np.empty(a.size + 8)
    start = (-buf.ctypes.data % 64) // 8
    out = buf[start : start + a.size].reshape(a.shape)
    out[...] = a
    return out


def load(src: Path, name: str):
    """slimrnn from ``src``, imported afresh as package ``name`` with every submodule (``cli`` imports them all)."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    init = src.resolve() / "slimrnn" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def source_lines(side) -> int:
    """The lines of a loaded side's ``slimrnn/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in Path(side.__path__[0]).glob("*.py"))


def ratio(num, den) -> dict:
    """Per-round ``num / den`` as median and quartiles, and the rounds in which ``num`` took less time."""
    r = np.asarray(num) / np.asarray(den)
    q1, median, q3 = np.percentile(r, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "won": int((r < 1.0).sum())}


def compare(a, b, b2) -> dict:
    """B against A from each side's per-round seconds: the ratios B/A and B'/B, the control band and the verdict.

    The band is 1 +/- d, d the larger distance of B'/B's quartiles from 1;
    only a B/A whose quartiles both lie beyond it reads faster or slower.
    """
    b_a, b2_b = ratio(b, a), ratio(b2, b)
    band = max(abs(b2_b["q1"] - 1.0), abs(b2_b["q3"] - 1.0))
    verdict = "faster" if b_a["q3"] < 1.0 - band else "slower" if b_a["q1"] > 1.0 + band else "inside"
    return {"b/a": b_a, "b2/b": b2_b, "band": band, "verdict": verdict}


def rounds(fns: dict, repeat: int, count: int) -> dict[str, list[float]]:
    """Each side's seconds per ``count`` in each of ``repeat`` rounds, the sides' order rotating by one per round."""
    start = time.perf_counter()
    for fn in fns.values():
        fn()
    number = max(1, math.ceil(len(fns) * ROUND_S / (time.perf_counter() - start)))
    names, seconds = list(fns), {name: [] for name in fns}
    for r in range(repeat):
        for name in names[r % len(names):] + names[: r % len(names)]:
            start = time.perf_counter()
            for _ in range(number):
                fns[name]()
            seconds[name].append((time.perf_counter() - start) / number / count)
    return seconds


def synthetic_split(data, count: int, rows: int, cols: int, seed: int):
    """Seeded uint8 images, each label drawn as a bright row over sparse noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, N_OUT, size=count)
    images = rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
    images[images < DARK_BELOW] = 0
    images[np.arange(count), labels % rows, :] = rng.integers(200, 256, size=(count, cols), dtype=np.uint8)
    return data.Split(sequences=images, labels=labels)


def calls(side, value: str, shapes: dict) -> dict:
    """One side's timed calls for variant ``value``: name -> (call, unit, count it is divided by)."""
    data, bptt = side.data, side.bptt
    rows, cols, B = shapes["rows"], shapes["cols"], shapes["batch"]
    train = synthetic_split(data, shapes["train"], rows, cols, seed=1)
    test = synthetic_split(data, shapes["test"], rows, cols, seed=2)
    seeds = tuple(shapes["gradcheck_seeds"])
    variant = side.cells.Variant(value)
    spec = side.cells.VariantSpec.make(variant, "tanh")
    model, _ = side.cells.init_params(spec, cols, shapes["n_h"], N_OUT, seed=0)
    ws = bptt.Workspace()
    batch = data.batches(train, B, seed=0, epoch=1)[0]
    x = np.swapaxes(batch.inputs, 0, 1)
    logits, trace = bptt.forward_sequence(spec, model, model, x, ws)
    _, dlogits = bptt.softmax_xent(logits, batch.labels)
    dlogits /= B
    grads = bptt.backward_sequence(trace, dlogits)
    w, g, acc = aligned(model.vec), aligned(grads.vec), aligned(np.zeros_like(model.vec))

    def walk():
        walked, walked_acc = side.cells.Params(model.layout, model.vec.copy()), np.zeros_like(model.vec)
        for b in data.batches(train, B, seed=0, epoch=1):
            _, walked_g, _ = bptt.batch_loss_and_grads(spec, walked, walked, b, ws)
            side.optim.rmsprop_step(walked.vec, walked_g.vec, walked_acc, ETA)

    def check(batch_size):
        return lambda: side.gradcheck.check_all(
            seeds=seeds, variants=(variant,), batch_size=batch_size, **shapes["gradcheck"])

    return {
        "forward_sequence": (lambda: bptt.forward_sequence(spec, model, model, x, ws), "ms/call", 1),
        "softmax_xent": (lambda: bptt.softmax_xent(logits, batch.labels), "ms/call", 1),
        "backward_sequence": (lambda: bptt.backward_sequence(trace, dlogits), "ms/call", 1),
        "rmsprop_step": (lambda: side.optim.rmsprop_step(w, g, acc, ETA), "ms/call", 1),
        "walk": (walk, "ms/example", len(train)),
        "evaluation": (lambda: side.harness.evaluate(spec, model, test, ws), "ms/example", len(test)),
        **{f"check_all_b{n}": (check(n), "ms/config", 3 * len(seeds)) for n in (1, 3)},
    }


def openblas(sides) -> dict:
    """The config string and core name of numpy's bundled OpenBLAS, through the first side's ``cli`` that can find them."""
    lookup = next((s.cli.openblas_function for s in sides if hasattr(s.cli, "openblas_function")), None)
    found = {}
    for key, name in (("openblas_config", "get_config"), ("openblas_core", "get_corename")):
        fn = lookup and lookup(name)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
        found[key] = None if fn is None else fn().decode()
    return found


def measure(sides: dict, shapes: dict, repeat: int) -> dict:
    """Every timing of every variant on each side, compared, and the run's context."""
    sides["b"].cli._pin_blas()
    ab = {}
    for variant in sides["b"].cells.Variant:
        per_side = {name: calls(side, variant.value, shapes) for name, side in sides.items()}
        ab[variant.value] = {}
        for timing, (_, unit, count) in per_side["b"].items():
            seconds = rounds({name: c[timing][0] for name, c in per_side.items()}, repeat, count)
            ms = {name: 1e3 * min(s) for name, s in seconds.items()}
            ab[variant.value][timing] = {"unit": unit, "ms": ms, "rounds": repeat, **compare(*seconds.values())}
    context = {
        "python": platform.python_version(), "numpy": np.__version__, **openblas(sides.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "src_lines": {name: source_lines(sides[name]) for name in ("a", "b")},
    }
    return {"shapes": shapes, "context": context, "ab": ab}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True, help="the BENCH json to write; must not exist")
    p.add_argument("--against", type=Path, required=True, help="side A: a src directory, e.g. the parent's")
    p.add_argument("--repeat", type=int, default=15, help="rounds per timing")
    p.add_argument("--tiny", action="store_true", help="tiny shapes, for a smoke run")
    args = p.parse_args(argv)
    if args.out.exists():
        p.error(f"{args.out} exists; give a new --out")
    if not args.out.parent.is_dir():
        p.error(f"{args.out.parent} is not a directory; give an --out in one")
    if not (args.against / "slimrnn" / "__init__.py").is_file():
        p.error(f"--against {args.against}: no slimrnn/__init__.py there; give a src directory")
    if args.repeat < 1:
        p.error(f"--repeat {args.repeat}: give at least one round")

    sources = {"a": args.against, "b": ROOT / "src", "b2": ROOT / "src"}
    sides = {name: load(src, f"slimrnn_{name}") for name, src in sources.items()}
    doc = measure(sides, TINY if args.tiny else FULL, args.repeat)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
