"""Lint driver: parse files, run rules, honor suppression comments.

Suppression syntax (comment anywhere on the line)::

    den == 0.0  # repro-lint: disable=float-equality  -- exact sentinel
    # repro-lint: disable-next-line=param-mutation,float-equality
    buf[...] = 0.0

``disable=all`` silences every rule for the line.  Suppressions are
parsed from real comment tokens (via :mod:`tokenize`), so the marker
inside a string literal does not suppress anything.

The run has three passes:

1. **Per-file rules** — every registered :class:`~repro.analysis.rules.Rule`
   over each file's AST (restricted to the changed set when the caller
   scopes the run, e.g. ``repro lint --changed``).
2. **Whole-program pass** — all files are loaded into one
   :class:`~repro.analysis.callgraph.Program`, the effect fixpoint is
   computed (:mod:`repro.analysis.effects`), and the transitive
   parallel-safety checks, ``@effects`` contract verification, and the
   static shape/dtype verifier (:mod:`repro.analysis.shapecheck`) run
   over the call graph.  Program findings carry provenance chains on
   ``Finding.trace`` and are suppressed by the same inline comments,
   keyed on the file and line they anchor to.
3. **Suppression audit** — when the full registry ran, every
   ``# repro-lint: disable[-next-line]=...`` comment that silenced
   nothing is itself reported as ``unused-suppression`` (so stale
   suppressions cannot hide future regressions).  The audit is skipped
   for ``--rules``-restricted runs, where "nothing fired" is expected.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import Program
from repro.analysis.effects import contract_findings, infer_effects
from repro.analysis.findings import Finding
from repro.analysis.parallel_rules import transitive_worker_findings
from repro.analysis.rules import REGISTRY, FileContext, Rule, all_rules
from repro.analysis.shapecheck import shape_findings

__all__ = [
    "PROGRAM_RULE_NAMES",
    "LintReport",
    "lint_source",
    "lint_file",
    "lint_paths",
    "lint_sources",
]

#: Rules (also) produced by the whole-program pass.  Selecting any of
#: them via ``--rules`` keeps the program pass running; selecting none
#: skips it entirely.
PROGRAM_RULE_NAMES = frozenset(
    {
        "worker-shared-state",
        "fork-unsafe-rng",
        "unordered-iteration",
        "effect-contract",
        "shape-mismatch",
        "rank-mismatch",
        "static-contract-violation",
        "dtype-policy-violation",
    }
)

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-next-line)?)\s*=\s*"
    r"([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)

#: Effective line -> {rule name -> line of the suppression comment}.
_SuppressionMap = Dict[int, Dict[str, int]]


class LintReport:
    """Outcome of one lint run: active findings plus suppression stats."""

    def __init__(self, findings: List[Finding], suppressed: List[Finding]):
        self.findings = sorted(findings)
        self.suppressed = sorted(suppressed)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self, explain: bool = False) -> str:
        """Human-readable multi-line report.

        With ``explain=True``, findings that carry a provenance chain
        (whole-program findings) print it as indented, numbered steps.
        """
        lines = [f.render(explain=explain) for f in self.findings]
        summary = f"{len(self.findings)} finding(s)"
        if self.suppressed:
            summary += f", {len(self.suppressed)} suppressed"
        lines.append(summary)
        return "\n".join(lines)


def _parse_suppressions(source: str) -> _SuppressionMap:
    """Map effective line -> {rule name -> comment line}."""
    suppressions: _SuppressionMap = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - defensive
        return suppressions
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if not match:
            continue
        directive, raw_names = match.groups()
        names = {n.strip() for n in raw_names.split(",") if n.strip()}
        comment_line = tok.start[0]
        line = comment_line + 1 if directive.endswith("next-line") else comment_line
        entry = suppressions.setdefault(line, {})
        for name in names:
            entry.setdefault(name, comment_line)
    return suppressions


def _is_suppressed(finding: Finding, suppressions: _SuppressionMap) -> bool:
    names = suppressions.get(finding.line)
    if not names:
        return False
    return "all" in names or finding.rule in names


def _unused_suppression_findings(
    path: str,
    source_lines: Sequence[str],
    suppressions: _SuppressionMap,
    suppressed: Sequence[Finding],
) -> List[Finding]:
    """``unused-suppression`` findings for comments that silenced nothing."""
    fired_by_line: Dict[int, Set[str]] = {}
    for finding in suppressed:
        fired_by_line.setdefault(finding.line, set()).add(finding.rule)
    out: List[Finding] = []
    for effective_line in sorted(suppressions):
        entries = suppressions[effective_line]
        fired = fired_by_line.get(effective_line, set())
        for name in sorted(entries):
            if name == "unused-suppression":
                continue  # opting out of this audit is always "used"
            if name == "all":
                if fired:
                    continue
                message = "disable=all suppresses no finding on this line"
            elif name in fired:
                continue
            elif name not in REGISTRY:
                message = (
                    f"suppression names unknown rule {name!r} "
                    "(typo? it can never fire)"
                )
            else:
                message = f"suppression of {name!r} matches no finding on this line"
            comment_line = entries[name]
            snippet = ""
            if 1 <= comment_line <= len(source_lines):
                snippet = source_lines[comment_line - 1].strip()
            out.append(
                Finding(
                    path=path,
                    line=comment_line,
                    col=0,
                    rule="unused-suppression",
                    message=message,
                    hint="delete the stale comment (or fix the rule name)",
                    severity="warning",
                    snippet=snippet,
                )
            )
    return out


def _parse_module(path: str, source: str) -> ast.Module:
    """Parse one source file (kept separate so tests can count parses)."""
    return ast.parse(source, filename=path)


def _program_findings(program: Program) -> List[Finding]:
    """Whole-program pass: worker checks + @effects + shape contracts."""
    effects = infer_effects(program)
    findings = transitive_worker_findings(program, effects)
    findings.extend(contract_findings(program, effects))
    findings.extend(shape_findings(program))
    return findings


def lint_sources(
    files: Sequence[Tuple[str, str]],
    rules: Optional[Sequence[Rule]] = None,
    changed: Optional[Set[str]] = None,
) -> LintReport:
    """Lint ``(path, source)`` pairs as one program.

    ``changed`` restricts *reporting* to the named paths (per-file rules
    are only run there, and program findings anchored elsewhere are
    dropped) while the whole-program pass still loads every file — so a
    changed worker is checked against unchanged helpers.

    Raises ``SyntaxError`` if a reported-on file does not parse — a file
    the interpreter rejects is not silently skipped.
    """
    selected = list(rules) if rules is not None else all_rules()
    selected_names = {rule.name for rule in selected}
    full_registry = rules is None
    run_program = full_registry or bool(PROGRAM_RULE_NAMES & selected_names)

    active: List[Finding] = []
    suppressed: List[Finding] = []
    suppression_maps: Dict[str, _SuppressionMap] = {}
    suppressed_by_path: Dict[str, List[Finding]] = {}
    lines_by_path: Dict[str, Sequence[str]] = {}

    # Parse each source exactly once: the per-file rules, the program
    # pass, and the audit all share these trees.  Without the program
    # pass only the reported-on files need parsing at all.
    trees: Dict[str, ast.Module] = {}
    parse_errors: Dict[str, SyntaxError] = {}
    for path, source in files:
        if not run_program and changed is not None and path not in changed:
            continue
        try:
            trees[path] = _parse_module(path, source)
        except SyntaxError as exc:
            parse_errors[path] = exc

    program_findings: List[Finding] = []
    if run_program:
        loaded = [(path, source) for path, source in files if path in trees]
        program = Program.load(loaded, trees=[trees[path] for path, _ in loaded])
        program_findings = _program_findings(program)

    for path, source in files:
        if changed is not None and path not in changed:
            continue
        if path in parse_errors:
            raise parse_errors[path]
        tree = trees[path]
        source_lines = source.splitlines()
        ctx = FileContext(path=path, source_lines=source_lines)
        suppressions = _parse_suppressions(source)
        suppression_maps[path] = suppressions
        suppressed_by_path[path] = []
        lines_by_path[path] = source_lines
        for rule in selected:
            for finding in rule.check(tree, ctx):
                if _is_suppressed(finding, suppressions):
                    suppressed.append(finding)
                    suppressed_by_path[path].append(finding)
                else:
                    active.append(finding)

    for finding in program_findings:
        if finding.path not in suppression_maps:
            continue  # anchored outside the reported-on set
        if not full_registry and finding.rule not in selected_names:
            continue
        if _is_suppressed(finding, suppression_maps[finding.path]):
            suppressed.append(finding)
            suppressed_by_path[finding.path].append(finding)
        else:
            active.append(finding)

    if full_registry:
        for path in suppression_maps:
            audit = _unused_suppression_findings(
                path,
                lines_by_path[path],
                suppression_maps[path],
                suppressed_by_path[path],
            )
            for finding in audit:
                if _is_suppressed(finding, suppression_maps[path]):
                    suppressed.append(finding)
                else:
                    active.append(finding)

    return LintReport(active, suppressed)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint one source string (as a single-module program).

    Raises ``SyntaxError`` if the source does not parse.
    """
    return lint_sources([(path, source)], rules=rules)


def lint_file(path: "str | Path", rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint one Python file."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_sources([(str(path), text)], rules=rules)


def _iter_python_files(paths: Iterable["str | Path"]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
        else:
            raise ValueError(f"not a Python file or directory: {p}")
    return files


def lint_paths(
    paths: Iterable["str | Path"],
    rules: Optional[Sequence[Rule]] = None,
    changed: Optional[Iterable["str | Path"]] = None,
) -> LintReport:
    """Lint files and directories (recursively) into one report.

    ``changed`` (when given) names the files to report on; all files
    under ``paths`` are still loaded so the whole-program pass sees the
    complete call graph.
    """
    files: List[Tuple[str, str]] = []
    for file_path in _iter_python_files(paths):
        files.append((str(file_path), file_path.read_text(encoding="utf-8")))
    changed_set: Optional[Set[str]] = None
    if changed is not None:
        # Match on resolved paths so "src/repro/cli.py" and the absolute
        # path git reports identify the same file.
        resolved_changed = {str(Path(c).resolve()) for c in changed}
        changed_set = {
            path for path, _ in files if str(Path(path).resolve()) in resolved_changed
        }
    return lint_sources(files, rules=rules, changed=changed_set)
