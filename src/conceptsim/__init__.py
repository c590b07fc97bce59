"""conceptsim: deterministic simulation of concept hierarchies built from
conditional bistable patterns, with an independent declarative oracle."""

from .engine import (
    Agreement,
    AgreementReport,
    CaseResult,
    Engine,
    EngineParams,
    ErrorRouting,
    PhaseTrace,
    Snapshot,
    Termination,
    Trace,
    Verdict,
    compare_with_oracle,
    dendrite_values,
    error_flags,
    predictions,
    read_verdicts,
    route_errors,
    run_scenario,
)
from .io import (
    ScenarioPhase,
    ScenarioSpec,
    TraceRow,
    UnitKind,
    parse_network_file,
    parse_params,
    parse_scenario_file,
    read_trace_csv,
    render_ascii_timeline,
    serialize_network,
    serialize_params,
    serialize_scenario,
    trace_rows,
    write_trace_csv,
)
from .model import (
    DEFAULT_TAU,
    ConceptId,
    ConceptSpec,
    NetworkSpec,
    Pattern,
    PatternState,
    PatternStatus,
    ValidatedNetwork,
    element_parents,
    pattern_need,
    pattern_state,
    validate_network,
)
from .oracle import (
    ConceptCheck,
    ConsistencyReport,
    OracleVerdict,
    concept_locally_consistent,
    effective_active,
    enumerate_interpretations,
    interpretation_consistent,
    oracle_verdicts,
    unexpected_elements,
)

__version__ = "0.1.0"
