"""EEG intent recognition pipeline.

Parses 64-channel EDF recordings into labeled samples, trains a
recurrent (LSTM) classifier over raw signal values, tunes its five
training knobs with a 16-run orthogonal-array sweep, evaluates with
confusion/ROC metrics plus an exact KNN baseline, and maps recognized
intents onto a simulated smart-home device over a line protocol.
"""

from .dataset import (
    DatasetSplit,
    LabelMapping,
    MappingRule,
    SampleSet,
    default_mapping,
    label_samples,
    load_mapping,
    load_table,
    save_table,
    split,
)
from .device import (
    APPLIANCE_PROFILE,
    PROFILES,
    ROBOT_PROFILE,
    Command,
    CommandProfile,
    DeviceSession,
    DeviceState,
    decode_ack,
    decode_command,
    device_apply,
    encode_ack,
    encode_command,
    led_on,
    replay,
    serve,
)
from .edf import (
    EdfAnnotation,
    EdfChannel,
    EdfRecording,
    parse_edf,
    serialize_edf,
)
from .evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    RocCurve,
    confusion,
    knn_classify,
    metrics,
    roc_auc,
)
from .model import (
    HyperParams,
    LayerSpec,
    ModelParams,
    TrainingSchedule,
    build,
    export_activations,
    load,
    predict,
    save,
    train,
)
from .nn import (
    AdamState,
    DenseParams,
    LstmParams,
    adam_init,
    adam_step,
    affine,
    cross_entropy_loss,
    gradient_check,
    sequence_gradients,
    softmax,
)
from .oa import (
    OaPlan,
    RangeAnalysis,
    build_plan,
    execute,
    is_orthogonal,
    range_analysis,
    savings,
)

__version__ = "0.1.0"
