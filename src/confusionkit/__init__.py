"""Two-speaker extraction confusion test bed.

Simulates target-confused extraction outputs, trains a toy speaker
encoder with metric-learning losses, and rectifies confused outputs via
embedding-similarity decision borders and mixture subtraction.
"""

from .audio import (
    CAP_DB,
    SI_SDR_EPS,
    Waveform,
    load_wav,
    mix,
    save_wav,
    si_sdr,
    truncate_random,
)
from .embedding import (
    FeatureMatrix,
    ToyEncoder,
    encode,
    init_encoder,
    load_encoder,
    log_mel_features,
    save_encoder,
)
from .losses import SCHEMES, multitask_loss
from .postfilter import (
    PostFilterParams,
    SimilarityPair,
    ValidationRecord,
    apply_postfilter,
    build_validation_records,
    decide_confused,
    load_params,
    run_pipeline,
    save_params,
    similarity_features,
    tune_linear,
    tune_rectangular,
)
from .simulate import (
    ConfusionConfig,
    Corpus,
    ExtractionSample,
    SyntheticSpeaker,
    build_corpus,
    confusion_draw,
    generate_corpus,
    load_corpus,
    make_extraction_sample,
    make_speakers,
    subset,
    swap_roles,
    synth_utterance,
    toy_separator,
)
from .training import (
    EmbeddingQuality,
    TrainConfig,
    TrainReport,
    eval_embedding_quality,
    train_encoder,
)
from .evaluate import (
    EvalRecord,
    confusion_rate,
    emit_report,
    margin_analysis,
    paired_eval_records,
    quadrant_stats,
)

__version__ = "0.1.0"
