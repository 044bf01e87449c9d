"""Compositional interaction learning on long-tail data, at desk scale.

The package decomposes interaction labels into verbs and objects, stitches
new interaction samples in feature space inside each minibatch, trains a
multi-branch classifier on real plus composited samples, and evaluates with
IoU-matched per-class average precision, including zero-shot splits.
"""

from .composer import ComposeConfig, compose_batch
from .evaluator import (
    Detections,
    EvalReport,
    GroundTruths,
    Scoring,
    detections_from_model,
    evaluate,
    ground_truths_from_instances,
)
from .label_algebra import HoiLabelSpace, build_space, compose, decompose
from .network import (
    LossWeights,
    ModelParams,
    NetworkConfig,
    forward_spatial_human,
    forward_spatial_human_boxes,
    forward_verb_object,
    fuse_scores,
    init_params,
    load_params,
    save_params,
)
from .synthdata import (
    Dataset,
    DatasetConfig,
    class_counts,
    generate,
    load_dataset,
    save_dataset,
)
from .trainer import TrainConfig, make_minibatch, sgd_step, train
from .zeroshot import ZeroShotSplit, apply_split, load_split, make_split, save_split

__version__ = "0.1.0"
