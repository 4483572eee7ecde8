"""Tests for the static shape & dtype verifier (``repro.analysis.shapecheck``).

Covers the seeded-bug fixture classes from the issue — a transposed
Gram operand, a mask passed as float, a float64 literal leaking into a
``@hot_path`` float32 chain — plus the soundness properties that keep
the verifier quiet on correct code: symbolic dims are universally
quantified, ⊤ always passes, and only provable conflicts report.
"""

import json

import pytest

from repro.analysis.rules import get_rules
from repro.analysis.runner import lint_source, lint_sources
from repro.analysis.sarif import to_sarif
from repro.cli import main

SHAPE_RULES = [
    "shape-mismatch",
    "rank-mismatch",
    "static-contract-violation",
    "dtype-policy-violation",
]


def shape_lint(source, path="fixture.py"):
    return lint_source(source, path=path, rules=get_rules(SHAPE_RULES))


TRANSPOSED_GRAM = '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("m r", "m n", "m n:bool")
def warm_solve(left, matrix, mask):
    gram = left @ left.T      # should be left.T @ left: (r, r)
    rhs = left.T @ matrix
    return np.linalg.solve(gram, rhs)
'''

MASK_AS_FLOAT = '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("m n", "m n:bool")
def masked_mean(values, mask):
    return (values * mask).sum() / mask.sum()


def caller(x):
    mask = np.ones((4, 5))    # float64, not a boolean mask
    return masked_mean(x, mask)
'''

HOT_F64_LITERAL = '''
import numpy as np
from repro.utils.contracts import hot_path, shapes


@hot_path
@shapes("m n:float")
def hot_kernel(x):
    w = x.astype(np.float32)
    bias = np.zeros(x.shape[1])   # float64 leaks into the f32 chain
    return w + bias
'''

HOT_PATH_HEAD = '''
import numpy as np
from repro.utils.contracts import hot_path, shapes


@hot_path
@shapes("m n:float")
def hot_kernel(x):
    w = x.astype(np.float32)
'''

#: The float64 producers a @hot_path float32 chain must not meet: the
#: bug, its fixed form (the value allocated or cast with the working
#: dtype), and the producer step the --explain trace must show.
FLOAT64_PRODUCERS = [
    pytest.param(
        "    bias = np.zeros(x.shape[1])\n    return w + bias\n",
        "    bias = np.zeros(x.shape[1], dtype=w.dtype)\n    return w + bias\n",
        "np.zeros(...) creates (n) [float64]",
        id="allocator",
    ),
    pytest.param(
        "    v = x.astype(np.float64)\n    return w + v\n",
        "    v = x.astype(w.dtype)\n    return w + v\n",
        ".astype casts (m, n) to float64",
        id="astype",
    ),
    pytest.param(
        "    scale = np.array([0.5, 1.0])\n    return w.sum() * scale\n",
        "    scale = np.array([0.5, 1.0], dtype=w.dtype)\n"
        "    return w.sum() * scale\n",
        "np.array([...]) creates (2) [float64]",
        id="float-literals",
    ),
    pytest.param(
        "    fill = np.full(x.shape[1], 0.5)\n    return w + fill\n",
        "    fill = np.full(x.shape[1], 0.5, dtype=w.dtype)\n    return w + fill\n",
        "np.full(...) creates (n) [float64]",
        id="full",
    ),
    pytest.param(
        "    tied = np.zeros(x.shape[1], dtype=x.dtype)\n"
        "    wide = np.ones(x.shape[1])\n"
        "    return tied + wide\n",
        "    tied = np.zeros(x.shape[1], dtype=x.dtype)\n"
        "    wide = np.ones(x.shape[1], dtype=x.dtype)\n"
        "    return tied + wide\n",
        "np.ones(...) creates (n) [float64]",
        id="tied-mix",
    ),
]


#: Int operands of a @hot_path float32 chain: the platform int that
#: np.arange and int literals give (a bug, with the producer step the
#: --explain trace must show) and two that keep float32 (None).
PLATFORM_INT_OPERANDS = [
    pytest.param(
        "    return w.sum() * np.array([1, 2, 3])\n",
        "np.array([...]) creates (3) [int64]",
        id="int-literals",
    ),
    pytest.param(
        "    return w * np.arange(x.shape[1])\n",
        "np.arange(...) creates (n) [int64]",
        id="arange",
    ),
    pytest.param("    return w * 2\n", None, id="weak-scalar"),
    pytest.param(
        "    return w * np.arange(x.shape[1], dtype=np.int16)\n",
        None,
        id="int16-arange",
    ),
]


class TestTransposedGram:
    def test_reports_shape_mismatch(self):
        report = shape_lint(TRANSPOSED_GRAM)
        assert [f.rule for f in report.findings] == ["shape-mismatch"]
        finding = report.findings[0]
        assert finding.severity == "error"
        assert "solve" in finding.message

    def test_explain_chain_has_at_least_two_frames(self):
        finding = shape_lint(TRANSPOSED_GRAM).findings[0]
        assert len(finding.trace) >= 2
        rendered = finding.render(explain=True)
        # The witness chain carries the inferred shapes end to end.
        assert "@shapes" in rendered
        assert "(m, m)" in rendered and "(r, n)" in rendered

    def test_sarif_code_flow(self):
        report = shape_lint(TRANSPOSED_GRAM)
        log = to_sarif(report, rules=get_rules(SHAPE_RULES))
        results = log["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["shape-mismatch"]
        flows = results[0]["codeFlows"]
        locations = flows[0]["threadFlows"][0]["locations"]
        assert len(locations) >= 2

    def test_fixed_operand_is_clean(self):
        fixed = TRANSPOSED_GRAM.replace("left @ left.T", "left.T @ left")
        assert shape_lint(fixed).ok


class TestMaskPassedAsFloat:
    def test_reports_contract_violation_at_call_site(self):
        report = shape_lint(MASK_AS_FLOAT)
        assert [f.rule for f in report.findings] == ["static-contract-violation"]
        finding = report.findings[0]
        assert "float64" in finding.message and "bool" in finding.message
        assert finding.line == MASK_AS_FLOAT.splitlines().index(
            "    return masked_mean(x, mask)"
        ) + 1

    def test_trace_spans_producer_and_contract(self):
        finding = shape_lint(MASK_AS_FLOAT).findings[0]
        assert len(finding.trace) >= 2
        notes = " | ".join(frame.note for frame in finding.trace)
        assert "@shapes" in notes          # the contract being violated
        assert "np.ones" in notes          # the offending producer
        assert "passes 'mask'" in notes    # the call site

    def test_boolean_mask_is_clean(self):
        fixed = MASK_AS_FLOAT.replace(
            "np.ones((4, 5))", "np.ones((4, 5), dtype=bool)"
        )
        assert shape_lint(fixed).ok


class TestHotPathFloat64Leak:
    def test_reports_semantic_dtype_policy_violation(self):
        report = shape_lint(HOT_F64_LITERAL)
        rules = [f.rule for f in report.findings]
        assert rules == ["dtype-policy-violation"]
        finding = report.findings[0]
        assert finding.severity == "warning"
        assert len(finding.trace) >= 2

    @pytest.mark.parametrize("bug, fixed, producer", FLOAT64_PRODUCERS)
    def test_float64_producer(self, bug, fixed, producer):
        # The whole registry runs: each bug reports once, at the
        # operation where float32 is lost, tracing back to its producer.
        report = lint_source(HOT_PATH_HEAD + bug, path="f.py")
        assert [f.rule for f in report.findings] == ["dtype-policy-violation"]
        assert producer in report.findings[0].render(explain=True)
        assert lint_source(HOT_PATH_HEAD + fixed, path="f.py").ok
        # Outside a @hot_path the same code is no policy violation.
        cold = (HOT_PATH_HEAD + bug).replace("@hot_path\n", "")
        assert lint_source(cold, path="f.py").ok

    @pytest.mark.parametrize("body, producer", PLATFORM_INT_OPERANDS)
    def test_platform_int_operand(self, body, producer):
        # int64 needs float64 to hold it, so meeting float32 it leaks
        # float64 as a float64 producer does; a weak scalar or a narrow
        # int keeps float32.
        report = lint_source(HOT_PATH_HEAD + body, path="f.py")
        if producer is None:
            assert report.ok
        else:
            assert [f.rule for f in report.findings] == ["dtype-policy-violation"]
            assert producer in report.findings[0].render(explain=True)

    def test_suppression(self):
        src = HOT_F64_LITERAL.replace(
            "    return w + bias",
            "    return w + bias  # repro-lint: disable=dtype-policy-violation",
        )
        report = lint_source(src, path="f.py")
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["dtype-policy-violation"]

    def test_no_syntactic_dtype_rules(self):
        from repro.analysis import REGISTRY

        syntactic = {
            "dtype-upcast-in-hot-path",
            "implicit-float64-literal",
            "dtype-dropping-op",
        }
        assert not syntactic & set(REGISTRY)
        # A waiver naming one of them silences nothing and is audited.
        src = HOT_PATH_HEAD + (
            "    bias = np.zeros(x.shape[1])  "
            "# repro-lint: disable=dtype-upcast-in-hot-path\n"
            "    return w + bias\n"
        )
        findings = lint_source(src, path="f.py").findings
        assert sorted(f.rule for f in findings) == [
            "dtype-policy-violation",
            "unused-suppression",
        ]
        (audit,) = [f for f in findings if f.rule == "unused-suppression"]
        assert "unknown rule 'dtype-upcast-in-hot-path'" in audit.message

    def test_working_dtype_allocation_is_clean(self):
        fixed = HOT_F64_LITERAL.replace(
            "np.zeros(x.shape[1])", "np.zeros(x.shape[1], dtype=w.dtype)"
        )
        assert shape_lint(fixed).ok


class TestRankAndExactDims:
    def test_rank_mismatch_at_call_site(self):
        report = shape_lint(
            '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("m n")
def frob(matrix):
    return np.sqrt((matrix * matrix).sum())


@shapes("m n")
def caller(x):
    return frob(x.sum(axis=0))   # (n,) into a 2-D contract
'''
        )
        assert [f.rule for f in report.findings] == ["rank-mismatch"]
        assert "1-D" in report.findings[0].message

    def test_exact_size_violation(self):
        report = shape_lint(
            '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("3 n")
def rgb_mix(channels):
    return channels.sum(axis=0)


def caller():
    return rgb_mix(np.zeros((4, 5)))
'''
        )
        assert [f.rule for f in report.findings] == ["static-contract-violation"]
        assert "size 3" in report.findings[0].message

    def test_symbolic_binding_conflict_across_arguments(self):
        report = shape_lint(
            '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("m n", "m n:bool")
def masked(values, mask):
    return values * mask


@shapes("m n", "n m:bool")
def caller(values, mask_t):
    return masked(values, mask_t)   # transposed mask
'''
        )
        rules = {f.rule for f in report.findings}
        assert rules == {"static-contract-violation"}


class TestSummaryPropagation:
    def test_return_summaries_flow_through_calls(self):
        report = shape_lint(
            '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("m n")
def flip(matrix):
    return matrix.T


@shapes("m n", "m k")
def project(matrix, basis):
    return flip(matrix) @ basis   # (n, m) @ (m, k): fine
'''
        )
        assert report.ok

    def test_bad_orientation_caught_through_helper(self):
        report = shape_lint(
            '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("m n")
def flip(matrix):
    return matrix.T


@shapes("m n", "n k")
def project(matrix, basis):
    return flip(matrix) @ basis   # (n, m) @ (n, k): inner m vs n
'''
        )
        assert [f.rule for f in report.findings] == ["shape-mismatch"]
        notes = " | ".join(f.note for f in report.findings[0].trace)
        assert "flip" in notes  # interprocedural witness

    def test_summary_instantiates_caller_dims(self):
        report = shape_lint(
            '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("a b")
def gram(x):
    return x.T @ x


@shapes("m n", "m n:bool")
def complete(values, mask):
    g = gram(values)              # (n, n)
    return np.linalg.solve(g, values)   # rows n vs m: conflict
'''
        )
        assert [f.rule for f in report.findings] == ["shape-mismatch"]
        assert "solve" in report.findings[0].message


class TestSoundness:
    """Unknowns and universally-valid code must stay silent."""

    def test_broadcasting_with_ones_and_unknowns(self):
        assert shape_lint(
            '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("m n", "n")
def scale(matrix, weights):
    out = matrix * weights              # (m, n) * (n,)
    out = out + matrix.mean(axis=1, keepdims=True)
    col = matrix[:, 0]
    row = matrix[0]
    outer = col[:, None] * row[None, :]
    stacked = np.stack([matrix, out])
    return stacked.sum(axis=0) + outer
'''
        ).ok

    def test_untracked_values_never_report(self):
        assert shape_lint(
            '''
import numpy as np
from repro.utils.contracts import shapes


def opaque(x):
    return x


@shapes("m n")
def launder(matrix):
    other = opaque(matrix)     # unknown shape
    return matrix @ other      # could be (n, anything): no proof
'''
        ).ok

    def test_same_symbol_matmul_is_provably_fine(self):
        assert shape_lint(
            '''
from repro.utils.contracts import shapes


@shapes("m n", "n k")
def product(a, b):
    return a @ b
'''
        ).ok

    def test_conditional_reassignment_joins(self):
        assert shape_lint(
            '''
import numpy as np
from repro.utils.contracts import shapes


@shapes("m n", "m n:bool")
def center(values, mask):
    work = values
    if mask.any():
        work = values - values[mask].mean()
    return work * mask
'''
        ).ok

    def test_verifier_is_clean_on_its_own_package(self):
        # The acceptance bar: zero shape findings over src/repro (the
        # self-lint in test_analysis_lint covers the full registry; this
        # pins the four new rules specifically).
        from pathlib import Path

        from repro.analysis.runner import lint_paths

        src_root = Path(__file__).resolve().parent.parent / "src" / "repro"
        report = lint_paths([src_root], rules=get_rules(SHAPE_RULES))
        assert report.ok, report.render(explain=True)


class TestSuppressionAndBaselinePlumbing:
    def test_inline_suppression_silences_shape_finding(self):
        suppressed = TRANSPOSED_GRAM.replace(
            "    return np.linalg.solve(gram, rhs)",
            "    return np.linalg.solve(gram, rhs)  "
            "# repro-lint: disable=shape-mismatch",
        )
        report = shape_lint(suppressed)
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["shape-mismatch"]

    def test_parse_error_in_reported_file_still_raises(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", path="bad.py", rules=get_rules(SHAPE_RULES))


class TestCliIntegration:
    def test_exit_code_and_explain_output(self, tmp_path, capsys):
        fixture = tmp_path / "gram.py"
        fixture.write_text(TRANSPOSED_GRAM)
        rc = main(["lint", str(fixture), "--rules", ",".join(SHAPE_RULES), "--explain"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "shape-mismatch" in out
        assert "matmul of (m, r) @ (r, m)" in out  # witness chain printed

    def test_sarif_format_includes_new_rules(self, tmp_path, capsys):
        fixture = tmp_path / "gram.py"
        fixture.write_text(TRANSPOSED_GRAM)
        rc = main(["lint", str(fixture), "--rules", ",".join(SHAPE_RULES), "--format", "sarif"])
        out = capsys.readouterr().out
        assert rc == 1
        log = json.loads(out)
        rule_ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert set(SHAPE_RULES) <= rule_ids

    def test_clean_fixture_exits_zero(self, tmp_path, capsys):
        fixture = tmp_path / "ok.py"
        fixture.write_text(
            TRANSPOSED_GRAM.replace("left @ left.T", "left.T @ left")
        )
        rc = main(["lint", str(fixture), "--rules", ",".join(SHAPE_RULES)])
        capsys.readouterr()
        assert rc == 0


class TestSingleParse:
    def test_each_source_parsed_exactly_once(self, monkeypatch):
        import repro.analysis.runner as runner_mod

        counts = {}
        real = runner_mod._parse_module

        def counting(path, source):
            counts[path] = counts.get(path, 0) + 1
            return real(path, source)

        monkeypatch.setattr(runner_mod, "_parse_module", counting)
        files = [
            ("a.py", "import numpy as np\n\n\ndef f(x):\n    return np.abs(x)\n"),
            ("b.py", "from a import f\n\n\ndef g(x):\n    return f(x)\n"),
        ]
        report = lint_sources(files)  # full registry: per-file + program + audit
        assert report is not None
        assert counts == {"a.py": 1, "b.py": 1}
