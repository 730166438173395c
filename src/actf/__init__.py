"""Attentive correlated temporal features for sequence classification.

A numpy-backed library with a minimal tape autodiff core, a compact bilinear
(count sketch + circular convolution) inter-frame correlation map, attentive
feature fusion, synthetic motion tasks, and a momentum-SGD training loop. On
the hot path, each frame pair's pooled correlation is the bucket sum of its
second moment x y^T / L, so no per-location correlation map is formed.
"""

from .tensor import Tensor, Tape
from .errors import ConfigError, FormatError, InputError, ShapeError
from .sketch import SketchPlan, make_plan, compact_bilinear, pooled_bilinear
from .attention import (
    PairFusionWeights,
    temporal_weights,
    fuse_pair,
    effective_weights,
)
from .branch import (
    ActfParams,
    LowLevelFeature,
    extract_iccf,
    extract_imf,
    extract_actf,
)
from .model import (
    ModelDims,
    ModelParams,
    VARIANTS,
    init_params,
    stpool,
    forward,
    save_checkpoint,
    load_checkpoint,
)
from .data import SyntheticTask, generate, read_tensor, write_tensor
from .train import TrainConfig, TrainReport, fit, evaluate

__version__ = "0.1.0"
