"""Per-phase timings of the engine's public calls, gathered into one BENCH json.

Run from the root of a checkout, one run per command, back to back:

    python bench/phases.py --out BENCH_25.json --label parent --src ../parent/src
    python bench/phases.py --out BENCH_25.json --label change
    python bench/phases.py --out BENCH_25.json --label parent --src ../parent/src
    python bench/phases.py --out BENCH_25.json --label change

A run imports slimrnn from ``--src`` (this checkout's ``src`` by default),
pins numpy's OpenBLAS to one thread through ``cli._pin_blas`` and takes the
min of ``--repeat`` rounds of each timing, a round being as many calls as
fill ROUND_S, on seeded synthetic 28 x 28 uint8 images with about 15% ink
(the MNIST files need not be present). Each timing also comes in units of
a fixed reference kernel (tanh of 100 x 100 matrix-vector products), as
``per_ref`` next to its ms: the median over the rounds of a round's time
over the kernel's mean time just before and just after it. The host's
speed drifts by tens of percent over minutes, and the kernel slows with
it, so this ratio moves far less between runs than the ms do. The
timings are:

* per variant at the paper's shapes (T = 28, n_in = 28, n_h = 100, batch
  32, tanh): ms per call of ``forward_sequence``, ``softmax_xent``,
  ``backward_sequence`` and ``rmsprop_step``, and ms per example of the
  optimizer walk (``batch_loss_and_grads`` then ``rmsprop_step``, over the
  training batches of one epoch) and of ``harness.evaluate``;
* per variant at ``check_all``'s shapes (n_in = 3, n_h = 5, n_out = 4,
  T = 4): ms per configuration of ``check_all`` over 3 activations x seeds
  0-2, at batch sizes 1 and 3 (``check_all_b1``, ``check_all_b3``), the
  two that ``slimrnn grad-check`` runs;
* context: the peak RSS, numpy's version, the OpenBLAS config string and
  core name (through ``cli.openblas_function``), and the min ms of the
  reference kernel.

Each run is appended to ``runs[label]`` of ``--out`` (created if missing),
and the file's ``summary`` is rebuilt: per label and metric, the min over
the label's runs and their spread, (max - min) / min. With runs labelled
``parent`` and ``change`` present, ``delta`` holds change / parent - 1 of
those mins. ``--tiny`` shrinks every shape for a smoke run; its numbers are
not comparable with full ones.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import platform
import resource
import statistics
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
REF_ITERATIONS = 1200  # products in one reference kernel call, about 3.5 ms
DARK_BELOW = 218  # uniform bytes under this become background: about 15% ink


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def aligned(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` that starts on a 64-byte boundary."""
    buf = np.empty(a.size + 8)
    start = (-buf.ctypes.data % 64) // 8
    out = buf[start : start + a.size].reshape(a.shape)
    out[...] = a
    return out


def reference_kernel():
    """A call that runs the reference kernel once and returns its seconds.

    Its arrays start on 64-byte boundaries: where the heap puts a 100 x 100
    matrix moves the kernel's time by 15-20% (16 or 48 bytes past a 64-byte
    boundary against 0 or 32), which would shift every ``per_ref`` of a run.
    """
    rng = np.random.default_rng(0)
    m, x, y = aligned(rng.normal(size=(100, 100)) / 10.0), aligned(rng.normal(size=100)), aligned(np.empty(100))

    def seconds() -> float:
        start = time.perf_counter()
        for _ in range(REF_ITERATIONS):
            np.tanh(np.matmul(m, x, out=y), out=x)
        return time.perf_counter() - start

    return seconds


def timing(fn, repeat: int, ref, unit: str, count: int = 1) -> dict:
    """``fn``'s ms per call over ``count``: the min over ``repeat`` rounds of at least ROUND_S of calls each.

    Next to it, as ``per_ref``, the same in reference kernels: the median
    over the rounds of a round's mean time per call over the mean of the
    kernel's seconds from ``ref()`` just before and just after the round.
    """
    start = time.perf_counter()
    fn()
    number = max(1, math.ceil(ROUND_S / (time.perf_counter() - start)))
    rounds, ratios, before = [], [], ref()
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        rounds.append((time.perf_counter() - start) / number)
        after = ref()
        ratios.append(rounds[-1] / ((before + after) / 2.0))
        before = after
    per_ref = metric(statistics.median(ratios) / count, unit.replace("ms", "ref", 1))
    return {**metric(1e3 * min(rounds) / count, unit), "per_ref": per_ref}


def synthetic_split(data, count: int, rows: int, cols: int, seed: int):
    """Seeded uint8 images, each label drawn as a bright row over sparse noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, N_OUT, size=count)
    images = rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
    images[images < DARK_BELOW] = 0
    images[np.arange(count), labels % rows, :] = rng.integers(200, 256, size=(count, cols), dtype=np.uint8)
    return data.Split(sequences=images, labels=labels)


def openblas(cli) -> dict:
    """The config string and core name of numpy's bundled OpenBLAS, where ``cli`` finds them."""
    found = {}
    for key, name in (("openblas_config", "get_config"), ("openblas_core", "get_corename")):
        fn = cli.openblas_function(name)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
        found[key] = None if fn is None else fn().decode()
    return found


def measure(shapes: dict, repeat: int) -> dict:
    """One run: every phase of every variant, the gradient check and the context."""
    from slimrnn import cli, data
    from slimrnn.bptt import Workspace, backward_sequence, batch_loss_and_grads, forward_sequence, softmax_xent
    from slimrnn.cells import Params, Variant, VariantSpec, init_params
    from slimrnn.gradcheck import check_all
    from slimrnn.harness import evaluate
    from slimrnn.optim import rmsprop_step

    cli._pin_blas()
    ref = reference_kernel()
    rows, cols, n_h, B = shapes["rows"], shapes["cols"], shapes["n_h"], shapes["batch"]
    train = synthetic_split(data, shapes["train"], rows, cols, seed=1)
    test = synthetic_split(data, shapes["test"], rows, cols, seed=2)
    seeds = tuple(shapes["gradcheck_seeds"])
    phases, gradcheck = {}, {}
    for variant in Variant:
        spec = VariantSpec.make(variant, "tanh")
        model, _ = init_params(spec, cols, n_h, N_OUT, seed=0)
        ws = Workspace()
        batch = data.batches(train, B, seed=0, epoch=1)[0]
        x = np.swapaxes(batch.inputs, 0, 1)
        logits, trace = forward_sequence(spec, model, model, x, ws)
        _, dlogits = softmax_xent(logits, batch.labels)
        dlogits /= B
        grads = backward_sequence(trace, dlogits)
        w, acc = model.vec.copy(), np.zeros_like(model.vec)

        def walk():
            walked, walked_acc = Params(model.layout, model.vec.copy()), np.zeros_like(model.vec)
            for b in data.batches(train, B, seed=0, epoch=1):
                _, g, _ = batch_loss_and_grads(spec, walked, walked, b, ws)
                rmsprop_step(walked.vec, g.vec, walked_acc, ETA)

        phases[variant.value] = {
            "forward_sequence": timing(lambda: forward_sequence(spec, model, model, x, ws), repeat, ref, "ms/call"),
            "softmax_xent": timing(lambda: softmax_xent(logits, batch.labels), repeat, ref, "ms/call"),
            "backward_sequence": timing(lambda: backward_sequence(trace, dlogits), repeat, ref, "ms/call"),
            "rmsprop_step": timing(lambda: rmsprop_step(w, grads.vec, acc, ETA), repeat, ref, "ms/call"),
            "walk": timing(walk, repeat, ref, "ms/example", len(train)),
            "evaluation": timing(lambda: evaluate(spec, model, test, ws), repeat, ref, "ms/example", len(test)),
        }
        def check(batch_size):
            return lambda: check_all(seeds=seeds, variants=(variant,), batch_size=batch_size, **shapes["gradcheck"])

        gradcheck[variant.value] = {
            f"check_all_b{B}": timing(check(B), repeat, ref, "ms/config", 3 * len(seeds)) for B in (1, 3)
        }
    context = {
        "python": platform.python_version(), "numpy": np.__version__, **openblas(cli),
        "reference_ms": metric(1e3 * min(ref() for _ in range(repeat)), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"shapes": shapes, "repeat": repeat, "context": context, "phases": phases, "gradcheck": gradcheck}


def leaves(tree: dict, path: str = "") -> dict[str, dict]:
    """The metrics of a run by dotted path: every nested dict that holds a value and a unit."""
    found = {path: tree} if "value" in tree and "unit" in tree else {}
    subtrees = ((f"{path}.{name}" if path else name, sub) for name, sub in tree.items() if isinstance(sub, dict))
    return found | {k: m for sub_path, sub in subtrees for k, m in leaves(sub, sub_path).items()}


def summarize(runs: dict[str, list[dict]]) -> dict:
    summary = {}
    for label, group in runs.items():
        paths = [leaves(run) for run in group]
        summary[label] = {}
        for path, first in paths[0].items():
            values = [p[path]["value"] for p in paths]
            low = min(values)
            summary[label][path] = {
                "min": low, "spread": (max(values) - low) / low if low else 0.0, "unit": first["unit"]
            }
    return summary


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True, help="the BENCH json to add this run to")
    p.add_argument("--label", required=True, help="the runs to add it to, e.g. parent or change")
    p.add_argument("--src", type=Path, default=ROOT / "src", help="the src directory to import slimrnn from")
    p.add_argument("--repeat", type=int, default=21, help="rounds per timing; the min is kept")
    p.add_argument("--tiny", action="store_true", help="tiny shapes, for a smoke run")
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    run = measure(TINY if args.tiny else FULL, args.repeat)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    doc["runs"].setdefault(args.label, []).append(run)
    doc["summary"] = summarize(doc["runs"])
    if {"parent", "change"} <= doc["summary"].keys():
        parent, change = doc["summary"]["parent"], doc["summary"]["change"]
        doc["delta"] = {k: change[k]["min"] / parent[k]["min"] - 1.0 for k in change if parent.get(k, {}).get("min")}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
