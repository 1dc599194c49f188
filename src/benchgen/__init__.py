"""Benchmark-instance generation for combinatorial solvers.

Tunes a parameterised instance generator with iterated racing so that the
generated instances are graded (inside a difficulty band for one solver)
or discriminating (easy for a favoured solver, hard for a base solver),
then scores, ranks and reports solver performance on the generated sets.

``import benchgen`` loads no submodule: each public name below is imported
from its module on first access, so a command that only reads an archive
never pays for the generator stack.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "ArchiveError",
            "BenchgenError",
            "CheckError",
            "DegenerateInput",
            "EvalError",
            "MissingRecord",
            "ModelError",
            "ParseError",
            "ValidationError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "DiscriminatingPolicy",
            "GradedPolicy",
            "LARGE_NEGATIVE",
            "PLUS_INFINITY",
            "evaluate_configuration",
            "oracle_optimum",
        ),
        "evaluate",
    ),
    **dict.fromkeys(
        (
            "CandidateInstance",
            "GeneratorSolveResult",
            "SolutionHistory",
            "solve_generator",
        ),
        "gensolve",
    ),
    **dict.fromkeys(("GeneratorModel", "check_assignment", "parse_model"), "model"),
    "get_problem": "problems",
    **dict.fromkeys(
        (
            "EvaluationLimits",
            "GenOutcome",
            "OracleResult",
            "RunStatus",
            "SolverAdapter",
            "SolverRecord",
            "Status",
            "run_solver",
        ),
        "runner",
    ),
    **dict.fromkeys(("BordaTable", "borda_complete", "pair_score"), "scoring"),
    **dict.fromkeys(
        (
            "GeneratorConfiguration",
            "ParameterSpace",
            "ParameterSpec",
            "SamplingModel",
            "parse_space",
            "sample_from_model",
            "sample_uniform",
            "update_sampling_model",
        ),
        "space",
    ),
    **dict.fromkeys(
        ("TunerConfig", "TunerReport", "friedman_eliminate", "race", "run_tuning"), "tuner"
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name, or a submodule, on first access (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as err:
            if err.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
