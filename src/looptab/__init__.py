"""Emotion-annotated loop corpora, conditional generation and evaluation
for symbolic guitar tablature."""

__version__ = "0.1.0"

from .tokens import Token, TokenCategory, ParseError, parse_tokens, render_tokens, token
from .score import (
    ScoreColumns,
    SongBatch,
    StructureError,
    decode_many,
    decode_parts,
    regular_parts,
    regularize_many,
    regularize_meter,
    score_to_tokens,
    tokens_to_score,
)
from .tension import (
    KeyEstimate,
    SpiralParams,
    TensionProfile,
    TensionThresholds,
    compute_tension_profile,
    discretize_profile,
    estimate_key,
    fifth_index_of_pitch,
    fit_tension_thresholds,
    pitch_position,
)
from .loops import (
    EventFingerprint,
    LoopParams,
    LoopSpan,
    extract_loops,
    fingerprint_sequence,
    splice_loop,
)
from .annotate import (
    AnnotationRecord,
    AudioFeaturesProvider,
    CsvFeaturesProvider,
    FeatureThresholds,
    HttpFeaturesProvider,
    build_corpus,
    compute_thresholds,
    fetch_annotations,
    inject_controls,
    load_annotations,
    song_control_tokens,
    strip_controls,
)
from .generate import (
    NGramModel,
    SamplingConstraints,
    build_prompt,
    mask_tempo,
    sample_sequence,
    train_generator,
)
from .evaluate import (
    EmotionMetrics,
    LinearTokenClassifier,
    emotion_metrics,
    loop_metric,
    survey_summary,
    train_classifier,
)
from .stats import (
    StatTestResult,
    chi2_sf,
    friedman,
    pairwise_bonferroni,
    wilcoxon_signed_rank,
)
from .config import PipelineConfig, config_from_json, config_to_json
