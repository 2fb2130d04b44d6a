"""EEG intent recognition pipeline.

Parses 64-channel EDF recordings into labeled samples, trains a
recurrent (LSTM) classifier over raw signal values, tunes its five
training knobs with a 16-run orthogonal-array sweep, evaluates with
confusion/ROC metrics plus an exact KNN baseline, and maps recognized
intents onto a simulated smart-home device over a line protocol.

The Python API is the modules (``mindctl.model.train``); the package
itself re-exports nothing.
"""

import os

# A multithreaded BLAS sums matrix products in an order that depends on
# its thread count, so the same seed and data would give different
# checkpoint bytes on different hosts. One thread unless the caller set
# one; this takes effect only if numpy is not loaded yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var
