"""Project-specific static analysis (``repro lint``).

An AST-based linter enforcing the numerical-correctness conventions of
this reproduction: RNG discipline, no float ``==``, no in-place mutation
of array parameters, mask-aware reductions, no bare excepts, no mutable
defaults.  On top of the per-file rules, a scope- and dataflow-aware
engine (:mod:`repro.analysis.engine`) powers the parallel-safety family
(:mod:`repro.analysis.parallel_rules`): shared-state mutation in pool
workers, fork-unsafe RNG capture, unordered iteration feeding
order-sensitive reductions, unlocked cross-thread cache mutation, and
``as_completed`` results aggregated positionally.

The lint is whole-program: every linted file is loaded into a
:class:`~repro.analysis.callgraph.Program` (project-aware import
resolution + call graph), a bottom-up effect fixpoint
(:mod:`repro.analysis.effects`) infers which functions transitively
mutate shared state, draw from shared RNG, touch the clock, do I/O, or
iterate unordered collections, and the parallel-safety rules fire
*through* helper calls with a full provenance chain (rendered by
``repro lint --explain`` and SARIF ``codeFlows``).  The same effect
tables statically verify ``@effects(...)`` purity contracts
(:mod:`repro.utils.contracts`).  A static shape & dtype verifier
(:mod:`repro.analysis.shapecheck`) abstract-interprets every function
over symbolic shapes and the bool<int<float32<float64 lattice, seeds
summaries from ``@shapes`` contracts, and proves the contracts at every
call site — bottom-up over the call-graph SCCs, without running any
code.  Its ``dtype-policy-violation`` is the one dtype rule: it guards
``@hot_path`` kernels against a float64 value meeting the float32 (or
input-tied) working dtype.

See :mod:`repro.analysis.rules` for the rule catalogue,
:mod:`repro.analysis.runner` for the driver and the
``# repro-lint: disable=<rule>`` suppression syntax,
:mod:`repro.analysis.sarif` for SARIF 2.1.0 output,
:mod:`repro.analysis.baseline` for the accepted-findings ratchet, and
:mod:`repro.analysis.determinism` for the runtime
``repro verify-determinism`` harness.

Run it via ``repro lint [paths...]`` or ``python -m repro.analysis``.
Exit codes: 0 = clean (or every finding baselined/suppressed), 1 = at
least one new finding, 2 = bad usage, unreadable baseline, or
parse/internal error.
"""

from repro.analysis.findings import SEVERITIES, Finding, TraceFrame
from repro.analysis.rules import REGISTRY, FileContext, Rule, all_rules, get_rules

# Importing these modules registers their rules in REGISTRY.
from repro.analysis import parallel_rules as _parallel_rules  # noqa: F401
from repro.analysis import shapecheck as _shapecheck  # noqa: F401
from repro.analysis.callgraph import FunctionId, Program
from repro.analysis.effects import ProgramEffects, infer_effects
from repro.analysis.runner import (
    PROGRAM_RULE_NAMES,
    LintReport,
    lint_file,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.analysis.baseline import (
    BaselineMismatch,
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.sarif import render_sarif, to_sarif

__all__ = [
    "Finding",
    "TraceFrame",
    "SEVERITIES",
    "FileContext",
    "Rule",
    "REGISTRY",
    "all_rules",
    "get_rules",
    "FunctionId",
    "Program",
    "ProgramEffects",
    "infer_effects",
    "PROGRAM_RULE_NAMES",
    "LintReport",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "BaselineMismatch",
    "apply_baseline",
    "fingerprint",
    "load_baseline",
    "write_baseline",
    "render_sarif",
    "to_sarif",
]
