"""blockaudit: audits trial-structured classification experiments for
block-design contamination, with a synthetic generator that reproduces the
phenomenon at desk scale."""

__version__ = "0.1.0"

from .dataset import (
    DesignKind,
    Session,
    TrialEvent,
    TrialMatrix,
    concat_trials,
    load_session,
    save_session,
    segment,
)
from .synthgen import (
    DriftParams,
    EvokedParams,
    Schedule,
    generate_session,
    make_block_schedule,
    make_rapid_event_schedule,
)
from .dsp import (
    FilterKind,
    FilterSpec,
    PowerSpectrum,
    apply_filter,
    design_filter,
    downsample,
    frequency_response,
    power_spectrum,
    rereference,
    vlf_fraction,
    zscore,
)
from .features import (
    ChannelRanking,
    crop_windows,
    fisher_scores,
    select_channels,
)
from .classifiers import (
    Cnn1dConfig,
    Cnn1dModel,
    KnnModel,
    LinearModel,
    MlpModel,
    TrainConfig,
    evaluate_accuracy,
    gradient_check,
    train_cnn1d,
    train_mlp,
    train_svm,
)
from .splits import (
    BLOCK_DISJOINT,
    LEAVE_ONE_SUBJECT_OUT,
    WITHIN_BLOCK,
    SplitPlan,
    loso_round_robin,
    relabel_blocks,
    split_block_disjoint,
    split_leave_one_subject_out,
    split_within_block,
)
from .audit import (
    AblationResult,
    CellResult,
    FilterConfig,
    GridResult,
    GridSpec,
    SplitSpec,
    Verdict,
    VerdictConfig,
    VerdictStatus,
    highpass_ablation,
    issue_verdict,
    relabel_analysis,
    run_grid,
)
from .codebook import (
    Codebook,
    FeatureSet,
    RidgeRegressor,
    average_over_subjects,
    generate_codebook,
    intra_inter_distances,
    make_clustered_features,
    train_ridge_regressor,
    transfer_svm_compare,
)
