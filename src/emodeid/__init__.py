"""Privacy-preserving multimodal emotion analysis toolkit."""

from .anonymize import AnonymizationParams, anonymize_mcadams, warp_pole_angles
from .annotations import (
    Emotion,
    NFBL_REGISTRY,
    NfblClip,
    VideoRecord,
    dataset_summary,
    load_annotations,
    nfbl_histogram,
    parse_annotations,
    serialize_annotations,
    split_dataset,
)
from .dsp import AudioSignal, FrameParams, MelSpectrogram, mel_spectrogram
from .metrics import ConfusionCounts, EvalReport, confusion, evaluate
from .pipeline import PipelineResult, SamplingConfig, run_batch, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "AnonymizationParams",
    "AudioSignal",
    "ConfusionCounts",
    "Emotion",
    "EvalReport",
    "FrameParams",
    "MelSpectrogram",
    "NFBL_REGISTRY",
    "NfblClip",
    "PipelineResult",
    "SamplingConfig",
    "VideoRecord",
    "anonymize_mcadams",
    "confusion",
    "dataset_summary",
    "evaluate",
    "load_annotations",
    "mel_spectrogram",
    "nfbl_histogram",
    "parse_annotations",
    "run_batch",
    "run_pipeline",
    "serialize_annotations",
    "split_dataset",
    "warp_pole_angles",
]
