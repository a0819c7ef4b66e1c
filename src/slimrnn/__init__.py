"""Parameter-reduced LSTM variants with hand-derived BPTT, trained on row-wise MNIST."""

from .bptt import Trace, backward_sequence, batch_loss_and_grads, forward_sequence, softmax_xent
from .cells import (
    Activation,
    Layout,
    Params,
    Variant,
    VariantSpec,
    apply_activation,
    init_params,
    param_count,
)
from .data import Dataset, SequenceBatch, Split, batches, load_dataset, read_idx_images, read_idx_labels, to_sequences
from .gradcheck import check_all, check_gradients
from .harness import BestResult, EpochMetrics, TrainConfig, best_of, evaluate, run_grid, train
from .optim import rmsprop_step

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "BestResult",
    "Dataset",
    "EpochMetrics",
    "Layout",
    "Params",
    "SequenceBatch",
    "Split",
    "Trace",
    "TrainConfig",
    "Variant",
    "VariantSpec",
    "apply_activation",
    "backward_sequence",
    "batch_loss_and_grads",
    "batches",
    "best_of",
    "check_all",
    "check_gradients",
    "evaluate",
    "forward_sequence",
    "init_params",
    "load_dataset",
    "param_count",
    "read_idx_images",
    "read_idx_labels",
    "rmsprop_step",
    "run_grid",
    "softmax_xent",
    "to_sequences",
    "train",
]
