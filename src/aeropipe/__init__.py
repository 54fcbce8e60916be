"""Aerial pedestrian detection, activity recognition and telemetry, desk-scale.

The package decomposes the onboard loop into small numpy/scipy stages:
dense map encoding and decoding, Gaussian-attention crops, a
batch-normalized recurrent activity head, confidence-weighted suppression,
an average-precision harness, a deterministic synthetic fixture generator,
and the compact operator report protocol.
"""

from .annotations import AnnotationRecord, group_by_frame, read_annotations, write_annotations
from .attention import AttentionConfig, AttentionMap, CropFeature, FeatureGrid, attention_map, crop_and_resize, expanded_window
from .boxgen import BoxGeneratorConfig, CornerCandidates, box_generator, find_peaks, generate_boxes, mask_maps, remove_noise
from .densemaps import DenseMaps, decode_pixel, encode, load_maps, save_maps
from .evaluate import EvalConfig, action_map, evaluate_map, nms
from .geometry import BBox, PixelCoord, center, iou
from .pipeline import FrameRecord, Pipeline, PipelineConfig, bench_frames, feature_stub
from .rng import SplitMix64
from .synth import SceneConfig, corrupt_maps, crop_dataset, generate_scene, generate_sequence
from .temporal import (
    ActivityModel,
    Adam,
    AdamConfig,
    BnLstmCell,
    LossBatch,
    Track,
    TrackStore,
    associate,
    bnlstm_step,
    loss_gradient,
    multi_activity_loss,
    predict,
    train_toy,
)
from .wire import ReportEntry, ReportMessage, decode_message, encode_message, frame_stream, unframe_stream

__version__ = "0.1.0"
