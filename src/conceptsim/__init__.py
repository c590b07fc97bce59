"""conceptsim: deterministic simulation of concept hierarchies built from
conditional bistable patterns, with an independent declarative oracle.

The public names below are imported from their submodule on first use (PEP
562), so `import conceptsim` loads no submodule and a one-shot command pays
only for the modules it runs.
"""
import importlib

_EXPORTS = {
    "compare": (
        "Agreement",
        "AgreementReport",
        "CaseResult",
        "compare_with_oracle",
    ),
    "engine": (
        "Engine",
        "EngineParams",
        "ErrorRouting",
        "PhaseTrace",
        "Snapshot",
        "Termination",
        "Trace",
        "Verdict",
        "dendrite_values",
        "error_flags",
        "read_verdicts",
        "route_errors",
        "run_scenario",
    ),
    "io": (
        "ScenarioPhase",
        "ScenarioSpec",
        "parse_network_file",
        "parse_params",
        "parse_scenario_file",
        "serialize_network",
        "serialize_params",
        "serialize_scenario",
    ),
    "model": (
        "DEFAULT_TAU",
        "ConceptId",
        "ConceptSpec",
        "NetworkSpec",
        "Pattern",
        "PatternState",
        "PatternStatus",
        "ValidatedNetwork",
        "pattern_need",
        "pattern_state",
        "validate_network",
    ),
    "oracle": (
        "ConceptCheck",
        "ConsistencyReport",
        "OracleVerdict",
        "enumerate_interpretations",
        "interpretation_consistent",
        "oracle_verdicts",
    ),
    "trace": (
        "TraceRow",
        "UnitKind",
        "read_trace_csv",
        "render_ascii_timeline",
        "write_trace_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"compare", "engine", "errors", "io", "model", "oracle", "trace"})

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule sets it as an attribute
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
