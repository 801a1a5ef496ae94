"""Structure-aware lane-graph attention for vehicle trajectory prediction.

Pure numpy implementation: scenario data model, lane-graph structure
matrices, a small reverse-mode autodiff engine, biased multi-head
attention, the full encode-fuse-decode model, training, and metrics.
"""

from .attention import (
    BiasSet,
    BiasWeights,
    attention,
    capture_softmax,
    compose_bias_matrices,
    nearest_neighbor_mask,
    transformer_layer,
)
from .autodiff import (
    GradCheckReport,
    ParameterRegistry,
    ShapeError,
    Tensor,
    backpropagate,
    grad_check,
    load_checkpoint,
    no_grad,
    save_checkpoint,
)
from .evaluation import (
    EvaluationReport,
    evaluate_model,
    sweep_neighborhoods,
    write_report_csv,
)
from .metrics import b_min_fde, evaluate_prediction, min_ade, min_fde, miss_rate
from .model import (
    ModelConfig,
    ModelParams,
    PredictionSet,
    ain_forward,
    decode_trajectories,
    fusion_forward,
    hte_forward,
    init_model,
    map_net_forward,
    model_forward,
    predict,
    prepare_sample,
    stack_samples,
)
from .scenario import (
    AgentHistory,
    Lane,
    LaneConnectivity,
    Scenario,
    arc_length_midpoint,
    finite_difference_velocities,
    normalize_scenario,
    parse_scenario,
    resample_centerline,
    save_scenario,
    validate_scenario,
)
from .synth import (
    GeneratorConfig,
    emit_dataset,
    generate_agents,
    generate_dataset,
    generate_lane_graph,
    generate_scenario,
    load_dataset,
)
from .topology import (
    TopologyMatrices,
    build_spd_matrix,
    build_topology,
    distance_to_bias,
)
from .training import (
    AdamOptimizer,
    LossConfig,
    TrainingConfig,
    TrainingDiverged,
    batch_loss,
    scenario_loss,
    train,
)

__version__ = "0.1.0"
