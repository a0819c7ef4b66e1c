"""One benchmark run: set up, verify, measure, report.

End-to-end metrics (``--trace 0``; the same three on every workload):

* ``setup_s``: import, plus the median of several ``load_dataset`` calls
  on the full-size gzipped IDX files up to the first training batch.
* ``op_per_ref``: wall time of one op (one-epoch ``train``, one-cell
  ``run_grid`` or one cell's ``check_all``) divided by the mean wall time
  of a fixed reference kernel timed just before and just after it
  (``Reference``); the mean over the workload's configurations of each
  configuration's median. The ratio keeps the host's speed drift out.
* ``peak_rss_mb``: the process's peak resident memory.

The report lines above the JSON also give op wall seconds and the
reference kernel's seconds, and, where the workload has them, examples per
second of the optimizer walk and of evaluation, epoch and cell seconds with
a tail percentile, configurations per second, and the fail rate with its
counts.

Per-layer metrics (``--trace 1``) are per traced op unless their name says
otherwise; a layer the workload never reaches, or whose hook target no
longer exists, reads 0 and is listed as not measured.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace

import numpy as np

import checks
import flops
import inputs
import tracer
import workloads

SETUP_REPS = 5
PERCENTILES = (99.9, 99.0, 90.0)
TRAINED = ("lstm",) + workloads.SLIM


def tail(values: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it, and the count."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n}"
    for p in PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 9) >= 10:
            return text + f", p{p:g} {float(np.percentile(values, p)):.6g})"
    return text + ", too few samples for a tail percentile)"


def per_config_median(results) -> float:
    """Mean over configurations of each configuration's median op seconds."""
    by_config: dict = {}
    for r in results:
        by_config.setdefault(r.config, []).append(r.seconds)
    return statistics.fmean(statistics.median(v) for v in by_config.values())


def op_per_ref(results) -> float:
    """``per_config_median`` of each op's seconds over the reference seconds around it."""
    return per_config_median([replace(r, seconds=r.seconds / r.ref_s) for r in results])


class Reference:
    """A fixed kernel timed around every op, to express op time in machine-independent units.

    The host's speed drifts by tens of percent over minutes while the code
    stays the same, and the program's kind of work slows with it, so the
    ratio of an op's time to this kernel's time just before and just after
    it moves far less than either. The kernel has the instruction mix of the
    cells: tanh of 100x100 matrix-vector products and short Python loops,
    about 10 ms.
    """

    ITERATIONS = 1200

    def __init__(self):
        rng = np.random.default_rng(0)
        self.m = rng.normal(size=(100, 100)) / 10.0
        self.v = rng.normal(size=100)

    def seconds(self) -> float:
        x = self.v
        t0 = time.perf_counter()
        for _ in range(self.ITERATIONS):
            x = np.tanh(self.m @ x)
            [i * 0.5 for i in range(30)]
        return time.perf_counter() - t0


def setup(slim, workload, data_dir, seed):
    """Repeat the set-up up to the first training batch; returns (seconds per rep, dataset)."""
    times, dataset = [], None
    for _ in range(SETUP_REPS):
        dataset = None  # drop the previous copy before loading the next
        t0 = time.perf_counter()
        dataset = slim.data.load_dataset(data_dir, workload.train_limit, workload.test_limit)
        slim.data.batches(dataset.train, workloads.BATCH, seed, 1)[0]
        times.append(time.perf_counter() - t0)
    return times, dataset


def verify_configs(slim, workload, dataset, seed) -> tuple[dict[tuple[str, str], list[str]], int]:
    """Untimed checks per configuration; returns the problems found and the unverified count.

    Training configurations: parameter counts and the first-batch gradient.
    gradcheck: every parameter count, plus ``check_all`` at a seed triple
    derived from the run's seed. There a configuration with a gradient error
    fails the run, and one where check_all compared no coordinate (its relu
    kink mask skipped them all) is counted as unverified and reported.
    """
    if workload.kind == "gradcheck":
        results = slim.gradcheck.check_all(seeds=workloads.seed_triple(seed), **workloads.GRADCHECK_DIMS)
        found = {}
        for variant, activation in workload.configs:
            problems = checks.param_problems(variant, checks.cli_param_count(slim.cli.main, variant))
            mine = [r for r in results if r.variant.value == variant and r.compared]
            found[(variant, activation)] = problems + checks.gradcheck_problems(mine)
        return found, sum(1 for r in results if not r.compared)
    found = {}
    for variant, activation in workload.configs:
        problems = checks.param_problems(variant, checks.cli_param_count(slim.cli.main, variant))
        grad = workloads.first_batch_gradient(slim, variant, activation, dataset, seed)
        found[(variant, activation)] = problems + checks.grad_problems(f"{variant}/{activation}", grad)
    return found, 0


class Runner:
    def __init__(self, slim, workload, seed, data_dir, dataset, work_dir, config_problems):
        self.slim, self.workload, self.seed = slim, workload, seed
        self.data_dir, self.dataset, self.work_dir = data_dir, dataset, work_dir
        self.config_problems = config_problems
        self.tally = checks.Tally()
        self.reference = Reference()
        self._ref_before = self.reference.seconds()

    def op(self, config, tr=None):
        """Run one op and tally it; returns its result, or None if it raised."""
        lo = len(tr) if tr is not None else 0
        try:
            r = workloads.run_op(self.slim, self.workload, config, self.seed,
                                 self.data_dir, self.dataset, self.work_dir)
        except Exception:  # an op that raises is a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            ops = workloads.GRADCHECK_CONFIGS if self.workload.kind == "gradcheck" else 1
            self.tally.record(ops, [f"{config}: raised"])
            return None
        r.span = (lo, len(tr) if tr is not None else 0)
        after = self.reference.seconds()
        r.ref_s, self._ref_before = (self._ref_before + after) / 2.0, after
        self.tally.record(r.ops, self.config_problems[config] + r.problems)
        return r

    def round(self, tr=None):
        return [r for c in self.workload.configs if (r := self.op(c, tr)) is not None]

    def measure(self, seconds):
        """Whole rounds over the workload's configurations until ``seconds`` have passed."""
        results, rounds, start = [], 0, time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            results += self.round()
            rounds += 1
        return results

    def measure_traced(self, seconds, tr):
        """Pairs of rounds, untraced then traced, for ``seconds``; returns (untraced, traced).

        Alternating rounds keeps drift in machine speed out of the overhead estimate.
        """
        untraced, traced, rounds, start = [], [], 0, time.perf_counter()
        while rounds < 2 or rounds % 2 or time.perf_counter() - start < seconds:
            if rounds % 2:
                with tr.installed():
                    traced += self.round(tr)
            else:
                untraced += self.round()
            rounds += 1
        return untraced, traced


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(results, setup_s) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "op_per_ref": metric(op_per_ref(results), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report_end_to_end(workload, results, setup_times, import_s, tally, metrics):
    print(f"setup_s {metrics['setup_s']['value']:.6g} s (import {import_s:.4g} s + median of "
          f"{len(setup_times)} loads to the first batch {statistics.median(setup_times):.4g} s)")
    secs = [r.seconds for r in results]
    training = workload.kind != "gradcheck"
    walk = sum(r.walk_s for r in results)
    rows = [
        ("train_ex_per_s", "examples/s", sum(r.n_train for r in results) / walk if training else None),
        ("eval_ex_per_s", "examples/s",
         sum(r.n_eval for r in results) / (sum(secs) - walk) if training else None),
        ("epoch_s", "s", tail(secs) if workload.kind == "epoch" else None),
        ("cell_s", "s", tail(secs) if workload.kind == "cell" else None),
        ("gradcheck_cfg_per_s", "configs/s",
         sum(r.ops for r in results) / sum(secs) if workload.kind == "gradcheck" else None),
        ("peak_rss_mb", "MB", metrics["peak_rss_mb"]["value"]),
        ("op_s", "s", per_config_median(results)),
        ("reference_s", "s", statistics.median(r.ref_s for r in results)),
        ("op_per_ref", "ratio", metrics["op_per_ref"]["value"]),
    ]
    for name, unit, value in rows:
        if value is None:
            value = "n/a on this workload"
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"{name} {shown} {unit}")
    print(f"fail_rate {tally.fail_rate:.6g} ratio ({tally.failed} failed of {tally.attempted} ops)")
    if workload.kind == "cell":
        per_variant = {}
        for r in results:
            per_variant.setdefault(r.config[0], []).append(1000.0 * r.walk_s / r.n_train)
        order = sorted(per_variant, key=lambda v: -statistics.median(per_variant[v]))
        print("walk ms/ex by variant (median over activations and rounds): "
              + ", ".join(f"{v} {statistics.median(per_variant[v]):.4g}" for v in order))


def per_layer(workload, tr, traced, untraced, setup_tr, unverified) -> dict:
    n = len(traced)
    table = tr.table()

    def self_per_op(span):
        row = table.get(span)
        return row.self_s / n if row else 0.0

    def calls_per_op(span):
        row = table.get(span)
        return row.calls / n if row else 0.0

    step_ctx = tr.self_by_context("cells.step", ("bptt.batch", "harness.evaluate"))
    load = setup_tr.table().get("data.load")
    program_s = sum(r.seconds for r in traced)
    out = {
        "trace.overhead_pct": metric(100.0 * (per_config_median(traced) / per_config_median(untraced) - 1.0),
                                     "%"),
        "trace.accounted_pct": metric(100.0 * sum(r.self_s for r in table.values()) / program_s, "%"),
        "trace.ops": metric(n, "count"),
        "data.load_s": metric(load.total_s / load.calls if load else 0.0, "s"),
        "data.batches_s": metric(self_per_op("data.batches"), "s"),
        "cells.init_s": metric(self_per_op("cells.init"), "s"),
        "cells.step_s": metric(self_per_op("cells.step"), "s"),
        "cells.step_train_s": metric(step_ctx["bptt.batch"] / n, "s"),
        "cells.step_eval_s": metric(step_ctx["harness.evaluate"] / n, "s"),
        "cells.step_calls": metric(calls_per_op("cells.step"), "count"),
        "cells.predict_s": metric(self_per_op("cells.predict"), "s"),
        "linalg.matvec_s": metric(self_per_op("linalg.matvec"), "s"),
        "linalg.matvec_calls": metric(calls_per_op("linalg.matvec"), "count"),
        "linalg.matvec_transposed_s": metric(self_per_op("linalg.matvec_transposed"), "s"),
        "linalg.matvec_transposed_calls": metric(calls_per_op("linalg.matvec_transposed"), "count"),
        "bptt.forward_s": metric(self_per_op("bptt.forward"), "s"),
        "bptt.backward_s": metric(self_per_op("bptt.backward"), "s"),
        "bptt.reduce_s": metric(self_per_op("bptt.batch"), "s"),
        "bptt.loss_s": metric(self_per_op("bptt.loss"), "s"),
        "bptt.computed_flop_per_ex": metric(workloads.flop_per_ex(workload), "flop"),
        "bptt.gflop_per_s": metric(sum(r.flop for r in untraced) / sum(r.seconds for r in untraced) / 1e9,
                                   "GFLOP/s"),
        "optim.rmsprop_s": metric(self_per_op("optim.rmsprop"), "s"),
        "optim.rmsprop_calls": metric(calls_per_op("optim.rmsprop"), "count"),
        "harness.train_self_s": metric(self_per_op("harness.train"), "s"),
    }
    for v in TRAINED:
        mine = [r for r in traced if r.config[0] == v]
        evaluate = sum(tr.table(*r.span).get("harness.evaluate", tracer.Row(0, 0.0, 0.0)).total_s
                       for r in mine)
        out[f"harness.walk_s.{v}"] = metric(statistics.fmean(r.walk_s for r in mine) if mine else 0.0, "s")
        out[f"harness.evaluate_s.{v}"] = metric(evaluate / len(mine) if mine else 0.0, "s")
    config = table.get("gradcheck.config")
    forward = table.get("bptt.forward")
    coords = sum(r.compared + r.skipped for r in traced)
    out["gradcheck.config_s"] = metric(config.total_s / config.calls if config else 0.0, "s")
    out["gradcheck.loss_evals"] = metric(forward.calls / config.calls if config and forward else 0.0, "count")
    out["gradcheck.compared_ratio"] = metric(sum(r.compared for r in traced) / coords if coords else 0.0,
                                             "ratio")
    out["gradcheck.unverified_configs"] = metric(unverified, "count")
    dims = workloads.PAPER_DIMS
    for v in flops.GATES:
        out[f"bptt.computed_fwd_madd_per_ex.{v}"] = metric(flops.forward_madds(v, **dims), "madd")
        out[f"bptt.computed_bwd_madd_per_ex.{v}"] = metric(flops.backward_madds(v, **dims), "madd")
    return out


def report_per_layer(tr, traced, metrics):
    total = sum(r.seconds for r in traced)
    print(f"traced ops {len(traced)}, program seconds {total:.4g}; self time by span:")
    for name, row in sorted(tr.table().items(), key=lambda kv: -kv[1].self_s):
        print(f"  {name:28s} calls {row.calls:>9d}  total {row.total_s:9.4f} s  "
              f"self {row.self_s:9.4f} s  {100.0 * row.self_s / total:6.2f}%")
    if tr.missing:
        print("not measured, hook target missing: " + ", ".join(tr.missing))
    missing, table = set(tr.missing), tr.table()
    idle = [span for m, f, span in tr.hooks if f"{m}.{f}" not in missing and span not in table]
    print("not called in traced ops: " + (", ".join(idle) or "none"))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def run(args, slim, workload, import_s, work_dir, manifest) -> int:
    print("manifest " + json.dumps(manifest), flush=True)
    data_dir = work_dir / "data"
    inputs.write_mnist_like(data_dir, args.seed)
    setup_tr = tracer.Tracer()
    if args.trace:
        with setup_tr.installed():
            setup_times, dataset = setup(slim, workload, data_dir, args.seed)
    else:
        setup_times, dataset = setup(slim, workload, data_dir, args.seed)
    config_problems, unverified = verify_configs(slim, workload, dataset, args.seed)
    if workload.kind == "gradcheck":
        print(f"check_all at seeds {workloads.seed_triple(args.seed)}: {unverified} of "
              f"{len(workload.configs) * workloads.GRADCHECK_CONFIGS} configurations compared "
              "no coordinate (unverified)")
    runner = Runner(slim, workload, args.seed, data_dir, dataset, work_dir, config_problems)
    runner.op(workload.configs[0])  # warm-up: caches and lazy set-up, checked but not timed

    if args.trace:
        tr = tracer.Tracer()
        untraced, traced = runner.measure_traced(args.seconds, tr)
        if not untraced or not traced:
            print("perfbench: no op completed", file=sys.stderr)
            return 1
        metrics = per_layer(workload, tr, traced, untraced, setup_tr, unverified)
        report_per_layer(tr, traced, metrics)
    else:
        results = runner.measure(args.seconds)
        if not results:
            print("perfbench: no op completed", file=sys.stderr)
            return 1
        metrics = end_to_end(results, import_s + statistics.median(setup_times))
        report_end_to_end(workload, results, setup_times, import_s, runner.tally, metrics)

    tally = runner.tally
    for reason in tally.reasons[:20]:
        print(f"FAILED CHECK: {reason}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0
