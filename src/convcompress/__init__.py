"""Structured compression of convolution kernels.

Data-free low-rank decompositions (weight/spatial SVD, CP, Tucker,
tensor-train), data-optimized refinements (PCA projection, asymmetric
reduced-rank fits, ReLU-aware relaxation, Asym3D, spatial refinement),
lasso channel pruning, stochastic gates (hard-concrete and Gaussian),
and whole-model rank selection under a MAC budget.
"""

from .kernel import (
    Kernel4D,
    LayerCost,
    aggregate_ratio,
    conv_direct,
    feature_map,
    mac_cost,
    matricize_spatial,
    matricize_weight,
    max_ranks,
    unmatricize_spatial,
    unmatricize_weight,
)
from .linalg import (
    LassoResult,
    RrrResult,
    SvdResult,
    eig_sym,
    lasso_cd,
    lasso_gram,
    pinv,
    reduced_rank_regression,
    ridge_solve,
    svd,
)
from .decomp import (
    DecomposedLayer,
    cp_als,
    decomposed_forward,
    reconstruct,
    spatial_svd,
    tt_svd,
    tucker_hooi,
    weight_svd,
)
from .dataopt import (
    PatchBatch,
    RefinedLayer,
    asym3d,
    asym_data_svd,
    attach_current_outputs,
    data_svd,
    refined_kernel,
    refined_layer,
    relu_asym,
    relu_z_step,
    sample_patches,
    spatial_refine,
    weight_factors,
)
from .pruning import PruneResult, channel_prune, magnitude_prune
from .gates import (
    GateVector,
    HardConcreteGate,
    ToyRegressionTask,
    VibGate,
    hc_deterministic,
    hc_grads,
    hc_penalty,
    hc_sample,
    prune_by_gates,
    train_toy_gated,
    vib_grads,
    vib_penalty,
    vib_sample,
)
from .rankselect import (
    AccTable,
    GridCosts,
    RankPlan,
    equal_acc_select,
    greedy_energy_select,
    ranks_from_ratio,
)
from .container import Container, ContainerError, read_container, write_container

__version__ = "0.1.0"
