"""Decision engine for automated intrusion response in vehicle networks.

Given a detector report (which asset attacked which, what the intrusion
does, how fast the vehicle is going), the engine scores the intrusion,
generates the applicable countermeasures from a JSON catalog, picks the
optimal one by a pluggable strategy, and adapts response parameters from
execution feedback.  The ``react`` CLI drives scenario files through
static-quality, dynamic-feedback, and velocity-sweep evaluations.
"""
from .engine import (
    AdaptationConfig,
    Attempt,
    Engine,
    EngineTrace,
    Failure,
    FeedbackVerdict,
    IterationRecord,
    LoopOrder,
    NewIntrusion,
    Success,
    adapt_on_failure,
    adapt_on_success,
    estimate_loop_time,
    inner_loop,
)
from .files import (
    Catalog,
    Scenario,
    SchemaError,
    data_dir,
    load_architecture,
    load_catalog,
    load_scenario,
    validate_file,
)
from .harness import (
    RunReport,
    SelectionRow,
    emit_series,
    run_dynamic,
    run_static_quality,
    run_velocity_sweep,
)
from .model import (
    Asset,
    AssetKind,
    CandidateInstance,
    CostVector,
    DomainError,
    EnvironmentTerm,
    ImpactVector,
    IntrusionEvent,
    IntrusionResult,
    Place,
    ResponseSpec,
    StopCondition,
    StopKind,
    VehicleState,
)
from .preconditions import Precondition, PreconditionError
from .responses import (
    CatalogError,
    effective_cost,
    generate_candidates,
    response_benefit,
    response_cost,
)
from .risk import (
    environment_from_velocity,
    event_impact,
)
from .selection import (
    ALGORITHMS,
    SawConfig,
    SelectionOutcome,
    brute_force_oracle,
    compute_impact_alphas,
    lp_select_max_benefit,
    lp_select_min_cost,
    make_selector,
    saw_select,
)

__version__ = "0.1.0"
