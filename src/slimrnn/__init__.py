"""Parameter-reduced LSTM variants with hand-derived BPTT, trained on row-wise MNIST.

The submodules are the import surface: ``from slimrnn.harness import train``.
"""

__version__ = "0.1.0"
