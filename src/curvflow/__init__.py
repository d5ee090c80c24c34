"""Curvature flows and nonlinear Markov chain machinery on finite graphs."""

from .chains import (
    ChainOperator,
    IterationResult,
    counterexample_operator,
    extend_operator,
    iterate_normalized,
    lambda_diagnostics,
    linear_chain_operator,
    perron_frobenius_operator,
    verify_properties,
)
from .curvature import (
    CurvatureReport,
    curvature_report,
    kappa_alpha,
    kappa_lly,
    modified_kappa_phi,
    ollivier_kappa,
    vertex_measure,
)
from .errors import (
    CertificateError,
    CurvflowError,
    DisconnectedError,
    InfeasibleError,
    PreconditionError,
    SolverError,
    ValidationError,
)
from .graphs import (
    DistanceMatrix,
    WeightedGraph,
    combinatorial_metric,
    connected_components,
    laplacian_apply,
    lipschitz_constant,
    shortest_path_metric,
)
from .plaplace import (
    PhiSpec,
    ResolventSolution,
    energy,
    lipschitz_decay_bound,
    p_laplacian,
    resolvent,
)
from .ricci_flow import (
    FlowConfig,
    FlowResult,
    FlowState,
    run_flow,
)
from .separation import (
    PartitionXKY,
    RicBounds,
    SeparationResult,
    lipschitz_extend,
    ric_r,
    separation_flow_generic,
    separation_flow_linear,
    separation_flow_p,
)
from .transport import (
    ProbMeasure,
    TransportPlan,
    constrained_transport_max,
    dual_certificate,
    transport_audit,
    wasserstein,
)

__version__ = "0.1.0"
