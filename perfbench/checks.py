"""Output checks. Each failed check fails the ops of the configuration it covers.

The checks run outside the timed region:

* parameter counts equal the table in PAPER.md (read from the program's
  ``count-params`` command, and from ``summary.csv`` for grid cells);
* tanh and sigmoid training losses are finite (a relu cell that diverges
  is data, not a failure);
* the analytic gradient of the first training batch of each trained
  configuration agrees with central differences on a fixed sample of
  coordinates: per parameter array, the coordinate with the largest
  gradient magnitude, at the program's own gradient-check bound;
* every configuration of the timed ``check_all`` matrix passes; an extra
  untimed ``check_all`` at seeds derived from the run's seed must show no
  gradient error (configurations it cannot verify are counted, not failed).
"""

from __future__ import annotations

import contextlib
import io
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

PAPER_PARAMS = {
    "lstm": 52610,
    "lstm4": 14210,
    "lstm5": 14510,
    "lstm4a": 14010,
    "lstm5a": 14110,
    "lstm6": 13910,
    "srn": 13910,
}

EPS = 1e-5        # central-difference step, as slimrnn.gradcheck
REL_TOL = 1e-4    # the gradient-check bound, as slimrnn.gradcheck
ERR_FLOOR = 1e-4  # relative-error denominator floor, as slimrnn.gradcheck
CANDIDATES = 3    # coordinates tried per array before giving up on relu kinks


@dataclass
class Tally:
    """Attempted and failed ops, plus the reason for every failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, ops: int, problems: list[str]) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.reasons.extend(problems)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def cli_param_count(cli_main: Callable[[list[str]], int], variant: str) -> int:
    """Parameter count at the paper's shapes, as the ``count-params`` command prints it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["count-params", "--variant", variant, "--hidden", "100"])
    name, count = out.getvalue().split()
    if code != 0 or name != variant:
        raise ValueError(f"count-params printed {out.getvalue()!r} with exit code {code}")
    return int(count)


def param_problems(variant: str, count: int) -> list[str]:
    want = PAPER_PARAMS[variant]
    return [] if count == want else [f"{variant}: {count} parameters, PAPER.md says {want}"]


def loss_problems(label: str, activation: str, losses: list[float]) -> list[str]:
    if activation == "relu" or all(np.isfinite(losses)):
        return []
    return [f"{label}: non-finite training loss {losses}"]


@dataclass
class GradResult:
    max_rel_err: float
    compared: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.compared > 0 and self.max_rel_err < REL_TOL


LossAt = Callable[[dict[str, np.ndarray]], tuple[float, np.ndarray | None]]


def central_difference_check(loss_at: LossAt, params: dict[str, np.ndarray],
                             grads: dict[str, np.ndarray]) -> GradResult:
    """Compare ``grads`` with central differences of ``loss_at`` on sampled coordinates.

    ``loss_at`` returns the loss and a kink signature (the on/off pattern
    of every relu input, or None for smooth activations). A coordinate
    whose +/- EPS evaluations change the signature straddles a kink, where
    no finite difference holds; the next-largest coordinate is tried.
    """
    _, base_sig = loss_at(params)
    max_err, compared, skipped = 0.0, 0, 0
    for name, g in grads.items():
        order = np.argsort(-np.abs(g), axis=None, kind="stable")[:CANDIDATES]
        for flat in order:
            j = np.unravel_index(flat, g.shape)
            evals = []
            for sign in (1.0, -1.0):
                arr = params[name].copy()
                arr[j] += sign * EPS
                evals.append(loss_at({**params, name: arr}))
            (lp, sp), (lm, sm) = evals
            if base_sig is not None and not (np.array_equal(sp, base_sig) and np.array_equal(sm, base_sig)):
                skipped += 1
                continue
            numeric = (lp - lm) / (2.0 * EPS)
            analytic = float(g[j])
            scale = max(abs(analytic), abs(numeric), ERR_FLOOR)
            max_err = max(max_err, abs(analytic - numeric) / scale)
            compared += 1
            break
    return GradResult(max_err, compared, skipped)


def grad_problems(label: str, result: GradResult) -> list[str]:
    if result.passed:
        return []
    return [f"{label}: first-batch gradient max rel err {result.max_rel_err:.3e} "
            f"over {result.compared} coordinates ({result.skipped} skipped at relu kinks)"]


def gradcheck_problems(results) -> list[str]:
    return [f"check_all {r.variant.value}/{r.activation.value} seed {r.seed}: "
            f"max rel err {r.max_rel_err:.3e}, compared {r.compared}"
            for r in results if not r.passed]
