"""Harmonic tropical curves: 1-forms on metric graphs, piecewise-linear
morphisms, twist integrality, and genus-0 amoeba degeneration experiments."""

from .degeneration import (
    AnnulusReport,
    ConvergenceReport,
    DegenerationSchedule,
    ExperimentSampling,
    IotaMap,
    PointCloud,
    PuncturedSphere,
    SamplingConfig,
    SphereDifferential,
    amoeba_map,
    annulus_period_experiment,
    collar_modulus,
    collar_sweep,
    collar_width,
    convergence_experiment,
    field_zero,
    hausdorff,
    ind_genus0,
    length_schedule,
    place_tree,
    realize_genus0,
    rescale_H,
    sample_amoeba,
)
from .errors import TropharmError
from .forms import (
    FormDecomposition,
    OneForm,
    ResidueMatrix,
    decompose,
    dual_form,
    form_space_dims,
    integrate,
    is_integer_form,
    residues,
    solve_exact_form,
)
from .graph import (
    CubicGraph,
    Edge,
    GraphPath,
    Leaf,
    MetricGraph,
    OrientedEdge,
    cycle_basis,
    graph_from_dict,
    graph_to_dict,
    leaf_paths,
    load_graph,
)
from .morphisms import (
    CombinatorialType,
    HarmonicMorphism,
    RegularityReport,
    Scene,
    build_morphism,
    combinatorial_type,
    emit_embedding,
    is_tropical,
    regularity_rank,
    residues_of,
    scene_to_dict,
    scene_to_svg,
)
from .phase import (
    IntegralityCheck,
    LimitPeriodMatrix,
    PeriodBasis,
    TwistAssignment,
    TwistSolution,
    check_integrality,
    default_period_basis,
    is_integer_period_matrix,
    limit_period_matrix,
    loop_twist_sum,
    solve_twists,
    zero_twists,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
