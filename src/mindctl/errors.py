"""Exception hierarchy shared across the pipeline.

One class per exit code the CLI tells apart: data errors (parsing,
labeling, splitting, checkpoints, configuration) exit 3 and numeric
failures (non-finite values during training) exit 4. The device's
``ProtocolError`` is no pipeline error: ``serve`` answers one with
``ERR`` and ``replay`` builds only valid commands, so one that reaches
the CLI is a fault (exit 1).
"""


class PipelineError(Exception):
    """Base class for the errors the CLI reports as bad input."""


class DataError(PipelineError):
    """A problem with input data, configuration, or stored artifacts."""


class NumericError(PipelineError):
    """Non-finite loss or gradients; the update or run is aborted."""


class ProtocolError(Exception):
    """Malformed device-protocol line or unknown device action."""
