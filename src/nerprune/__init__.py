"""Desk-scale workbench for pruning and robustness testing of NER taggers.

The package is organized by pipeline stage: corpus loading and span
decoding (corpus), entity replacement (perturb), entity-level scoring
and run records (evaluation), magnitude pruning (pruning), the
feed-forward tagger (tagger), the grid runner (experiment), result
aggregation (analysis) and the command line front end (cli).
"""

from .analysis import (
    GroupDimension,
    emit_report,
    group_stats,
    kendall_tau,
    relative_delta,
    robustness_ratio,
)
from .corpus import (
    ENTITY_TYPES,
    TAGSET,
    Corpus,
    LanguageMeta,
    Sentence,
    entity_overlap,
    load_language_metadata,
    parse_iob2,
    serialize_iob2,
)
from .errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    DivergenceError,
    EmptyGroupError,
    MetadataError,
    MissingMetadataError,
    MonotonicityError,
    NerpruneError,
    ParseError,
    PruningError,
    ScheduleError,
    TagError,
)
from .evaluation import (
    RunRecord,
    RunTable,
    ScoreReport,
    read_run_records,
    score_corpus,
)
from .experiment import (
    ExperimentConfig,
    RunSpec,
    config_from_file,
    plan,
    run,
)
from .perturb import (
    EntityPool,
    ReplacementRecord,
    Scope,
    build_pool,
    perturb_corpus,
)
from .pruning import (
    ParamTensor,
    PruneSchedule,
    PruneStrategy,
    Role,
    apply_masks,
    compute_masks,
    load_checkpoint,
    measure_sparsity,
    save_checkpoint,
    schedule_events,
)
from .tagger import (
    TaggerConfig,
    TaggerModel,
    build_vocab,
    grad_check,
    init_model,
    predict,
    train,
)

__version__ = "0.1.0"
