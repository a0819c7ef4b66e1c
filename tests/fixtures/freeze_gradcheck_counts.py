"""Freeze the gradient check's compared/skipped counts as a regression reference.

For the 63-configuration matrix (7 variants x 3 activations x seeds 0-2,
n_in=3, n_h=5, n_out=4, T=4) at batch sizes 1 and 3, this writes what
``gradcheck.check_gradients`` counts to ``gradcheck_counts.json`` next to
this script: under the key ``<variant>/<activation>/<seed>/<B>``, the pair
``[compared, skipped]``. At eps=1e-5 no relu input of that matrix comes
near the kink, so every count has skipped == 0; the relu rows are written
once more with ``gradcheck.EPS`` set to the coarse step 0.03 (keys ending
in ``/eps=0.03``), where the perturbations flip relu inputs and the kink
rule skips coordinates. Those coarse checks do not pass (the step is far
too large for the tolerance); only their counts are a reference.

The committed file was written by the one-coordinate-per-forward-pass
check that preceded the replica passes (commit c7a187b), so
``tests/test_gradcheck.py`` checks that batching the central differences
changed neither the relu kink rule's verdicts nor the coordinates covered.
Run against a checkout's own code with

    PYTHONPATH=src python tests/fixtures/freeze_gradcheck_counts.py [out.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

from slimrnn import gradcheck
from slimrnn.gradcheck import check_all

SEEDS = (0, 1, 2)
BATCH_SIZES = (1, 3)
COARSE_EPS = 0.03
DIMS = dict(n_in=3, n_h=5, n_out=4, T=4)
OUT = Path(__file__).with_name("gradcheck_counts.json")


def freeze() -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for size in BATCH_SIZES:
        for r in check_all(seeds=SEEDS, batch_size=size, **DIMS):
            if not r.passed:
                raise SystemExit(f"{r} does not pass; refusing to freeze its counts")
            out[f"{r.variant.value}/{r.activation.value}/{r.seed}/{size}"] = [r.compared, r.skipped]
        with mock.patch.object(gradcheck, "EPS", COARSE_EPS):
            coarse = check_all(seeds=SEEDS, activations=("relu",), batch_size=size, **DIMS)
        for r in coarse:
            out[f"{r.variant.value}/relu/{r.seed}/{size}/eps={COARSE_EPS:g}"] = [r.compared, r.skipped]
    return out


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    counts = freeze()
    rows = [f"  {json.dumps(k)}: {json.dumps(counts[k])}" for k in sorted(counts)]
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {path}")
