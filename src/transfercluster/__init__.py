"""Transfer clustering of novel categories in feature-vector data.

The package fine-tunes a small encoder and a set of cluster prototypes
on unlabelled data with a KL-annealed soft-assignment objective (plus
temporal-ensembling and consistency variants), and estimates the number
of unknown categories using labelled probe classes.
"""

__version__ = "0.1.0"

from .assignment import (
    Prototypes,
    consistency_loss,
    kl_loss,
    kl_loss_gradients,
    soft_assign,
    soft_assign_grads,
    target_distribution,
)
from .dataset import (
    FeatureMatrix,
    LabeledSet,
    ProbeSplit,
    load_features,
    load_labeled,
    save_features,
    split_probes,
    synth_mixture,
)
from .encoder import (
    EncoderParams,
    PcaModel,
    PretrainConfig,
    backward,
    fit_pca,
    forward,
    install_bottleneck,
    load_encoder,
    pretrain_classifier,
    pretrain_encoder,
    save_encoder,
)
from .errors import DataError, DegenerateClusterError, NumericalError, ParameterError
from .estimator import EstimationReport, SweepPoint, estimate_class_count, sweep_report_to_csv
from .kmeans import KmeansResult, constrained_kmeans, kmeans
from .metrics import (
    EvalReport,
    clustering_accuracy,
    count_error,
    evaluate_clustering,
    nmi,
    silhouette,
)
from .regularizers import (
    EnsembleState,
    ema_corrected,
    ema_update,
    perturb,
    ramp_weight,
)
from .trainer import TrainConfig, TrainTrace, initialize, predict, train
