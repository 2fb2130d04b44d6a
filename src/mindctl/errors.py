"""Exception hierarchy shared across the pipeline.

One class per exit code the CLI tells apart: data errors (parsing,
labeling, splitting, checkpoints, configuration) exit 3, numeric
failures (non-finite values during training) exit 4, and protocol
errors (device wire format) exit 5.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PipelineError):
    """A problem with input data, configuration, or stored artifacts."""


class NumericError(PipelineError):
    """Non-finite loss or gradients; the update or run is aborted."""


class ProtocolError(PipelineError):
    """Malformed device-protocol line or unknown device action."""
