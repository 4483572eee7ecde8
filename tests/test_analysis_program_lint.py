"""Tests for the whole-program lint pass and its CLI surface.

The centrepiece is the regression fixture for the PR-4
``apps/congestion.py`` bug: ``np.mean`` over a comprehension of an
unsorted set.  Here the bug is reintroduced *behind a helper call* —
the worker passes the set, the helper iterates it — which only the
interprocedural effect pass can see.  The finding must carry a >= 2-hop
provenance chain rendered by ``repro lint --explain`` and by SARIF
``codeFlows``.

Also covered: transitive worker-shared-state and fork-unsafe-rng,
suppression of program findings, the ``unused-suppression`` audit,
the one dtype rule under the full registry, changed-set scoping, and
CLI exit codes.
"""

import json

import pytest

from repro.analysis import lint_paths, lint_source, lint_sources, to_sarif
from repro.cli import main


# The PR-4 congestion bug, one helper-call deep: the worker builds the
# cluster as a set and the helper's np.mean iterates it unsorted.
CONGESTION_REGRESSION = """\
import numpy as np
from concurrent.futures import ProcessPoolExecutor


def cluster_mean(cluster, row, col_of):
    return float(np.mean([row[col_of[s]] for s in cluster]))


def hotspot_worker(row, col_of, congested):
    cluster = {s for s in congested if row[col_of[s]] > 0.5}
    return cluster_mean(cluster, row, col_of)


def scan(rows, col_of, congested):
    with ProcessPoolExecutor() as ex:
        futures = [
            ex.submit(hotspot_worker, row, col_of, congested) for row in rows
        ]
    return [f.result() for f in futures]
"""


def rules_hit(source, path="pkg/module.py"):
    return {f.rule for f in lint_source(source, path=path).findings}


class TestCongestionRegression:
    def test_caught_with_two_hop_provenance(self):
        report = lint_source(CONGESTION_REGRESSION, path="apps/congestion.py")
        findings = [f for f in report.findings if f.rule == "unordered-iteration"]
        assert len(findings) == 1
        finding = findings[0]
        # Anchored at the submission site, traced to the helper's mean.
        assert finding.line == 17
        assert len(finding.trace) >= 3  # submit -> worker calls helper -> mean
        assert "submits worker 'hotspot_worker'" in finding.trace[0].note
        assert "calls cluster_mean()" in finding.trace[1].note
        assert "cluster" in finding.trace[-1].note

    def test_explain_renders_numbered_chain(self):
        report = lint_source(CONGESTION_REGRESSION, path="apps/congestion.py")
        rendered = report.render(explain=True)
        assert "1. apps/congestion.py:17" in rendered
        assert "calls cluster_mean()" in rendered
        # Without explain the chain stays off the terse output.
        assert "calls cluster_mean()" not in report.render()

    def test_sarif_code_flow_walks_the_chain(self):
        report = lint_source(CONGESTION_REGRESSION, path="apps/congestion.py")
        log = to_sarif(report)
        results = [
            r
            for r in log["runs"][0]["results"]
            if r["ruleId"] == "unordered-iteration"
        ]
        assert len(results) == 1
        flows = results[0]["codeFlows"]
        locations = flows[0]["threadFlows"][0]["locations"]
        assert len(locations) >= 3
        notes = [loc["location"]["message"]["text"] for loc in locations]
        assert any("submits worker" in n for n in notes)
        assert any("calls cluster_mean" in n for n in notes)
        lines = [
            loc["location"]["physicalLocation"]["region"]["startLine"]
            for loc in locations
        ]
        assert lines[0] == 17  # submission site leads the flow

    def test_sorted_cluster_is_clean(self):
        fixed = CONGESTION_REGRESSION.replace("for s in cluster", "for s in sorted(cluster)")
        report = lint_source(fixed, path="apps/congestion.py")
        assert not [f for f in report.findings if f.rule == "unordered-iteration"]


class TestTransitiveWorkerRules:
    def test_shared_state_through_helper(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "RESULTS = {}\n"
            "def record(key, value):\n"
            "    RESULTS[key] = value\n"
            "def work(key):\n"
            "    record(key, key * 2)\n"
            "def run(keys):\n"
            "    with ThreadPoolExecutor() as ex:\n"
            "        return [ex.submit(work, k) for k in keys]\n"
        )
        report = lint_source(src)
        findings = [f for f in report.findings if f.rule == "worker-shared-state"]
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert any("RESULTS" in frame.note for frame in findings[0].trace)

    def test_direct_hazard_not_doubled_by_program_pass(self):
        # A hazard in the worker body itself is the per-module rule's
        # job; the transitive rule only fires at hops >= 1.
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "RESULTS = {}\n"
            "def work(key):\n"
            "    RESULTS[key] = key * 2\n"
            "def run(keys):\n"
            "    with ThreadPoolExecutor() as ex:\n"
            "        return [ex.submit(work, k) for k in keys]\n"
        )
        report = lint_source(src)
        findings = [f for f in report.findings if f.rule == "worker-shared-state"]
        assert len(findings) == 1  # per-module finding only
        assert findings[0].trace == ()

    def test_fork_unsafe_rng_through_helper_process_backend(self):
        src = (
            "import numpy as np\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def draw():\n"
            "    return np.random.random()\n"
            "def work(i):\n"
            "    return draw() + i\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as ex:\n"
            "        return [ex.submit(work, i) for i in items]\n"
        )
        report = lint_source(src)
        assert "fork-unsafe-rng" in {f.rule for f in report.findings}

    def test_fork_unsafe_rng_not_fired_for_thread_backend(self):
        src = (
            "import numpy as np\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def draw():\n"
            "    return np.random.random()\n"
            "def work(i):\n"
            "    return draw() + i\n"
            "def run(items):\n"
            "    with ThreadPoolExecutor() as ex:\n"
            "        return [ex.submit(work, i) for i in items]\n"
        )
        report = lint_source(src)
        transitive = [
            f for f in report.findings if f.rule == "fork-unsafe-rng" and f.trace
        ]
        assert transitive == []

    def test_worker_drawing_from_passed_rng_is_clean(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(rng):\n"
            "    return rng.normal()\n"
            "def run(rngs):\n"
            "    with ProcessPoolExecutor() as ex:\n"
            "        return [ex.submit(work, r) for r in rngs]\n"
        )
        report = lint_source(src)
        assert "fork-unsafe-rng" not in {f.rule for f in report.findings}

    def test_program_finding_suppressible_at_submit_site(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "RESULTS = {}\n"
            "def record(key, value):\n"
            "    RESULTS[key] = value\n"
            "def work(key):\n"
            "    record(key, key * 2)\n"
            "def run(keys):\n"
            "    with ThreadPoolExecutor() as ex:\n"
            "        # repro-lint: disable-next-line=worker-shared-state\n"
            "        return [ex.submit(work, k) for k in keys]\n"
        )
        report = lint_source(src)
        assert "worker-shared-state" not in {f.rule for f in report.findings}
        assert "worker-shared-state" in {f.rule for f in report.suppressed}


class TestEffectContractCli:
    def test_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n"
            "from repro.utils.contracts import effects\n"
            "def noisy():\n"
            "    return np.random.random()\n"
            "@effects('pure')\n"
            "def kernel(x):\n"
            "    return x + noisy()\n"
        )
        rc = main(["lint", str(bad), "--explain"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "effect-contract" in out
        assert "calls noisy()" in out  # --explain prints the chain

    def test_satisfied_contract_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text(
            "from repro.utils.contracts import effects\n"
            "@effects('pure')\n"
            "def kernel(a, b):\n"
            "    return a + b\n"
        )
        assert main(["lint", str(good)]) == 0


class TestUnusedSuppression:
    def test_stale_suppression_flagged_at_comment_line(self):
        src = "x = 1  # repro-lint: disable=float-equality\n"
        report = lint_source(src)
        assert [f.rule for f in report.findings] == ["unused-suppression"]
        assert report.findings[0].line == 1

    def test_live_suppression_not_flagged(self):
        src = "ok = den == 0.0  # repro-lint: disable=float-equality\n"
        report = lint_source(src)
        assert not report.findings
        assert len(report.suppressed) == 1

    def test_unknown_rule_name_flagged_as_typo(self):
        src = "ok = den == 0.0  # repro-lint: disable=float-equality,flaot-equality\n"
        report = lint_source(src)
        assert [f.rule for f in report.findings] == ["unused-suppression"]
        assert "unknown rule" in report.findings[0].message

    def test_disable_next_line_reports_comment_line(self):
        src = "# repro-lint: disable-next-line=bare-except\nx = 1\n"
        report = lint_source(src)
        assert [f.rule for f in report.findings] == ["unused-suppression"]
        assert report.findings[0].line == 1

    def test_audit_skipped_for_rule_restricted_runs(self):
        from repro.analysis import get_rules

        src = "x = 1  # repro-lint: disable=float-equality\n"
        report = lint_source(src, rules=get_rules(["float-equality"]))
        assert not report.findings

    def test_partially_used_multi_name_comment(self):
        src = "ok = den == 0.0  # repro-lint: disable=float-equality,bare-except\n"
        report = lint_source(src)
        assert [f.rule for f in report.findings] == ["unused-suppression"]
        assert "'bare-except'" in report.findings[0].message


class TestDtypeRules:
    """``dtype-policy-violation``, the one dtype rule, under the full registry.

    ``@shapes`` gives ``x`` a float dtype, so a value tied to it is the
    working dtype and a float64 value meeting it is a violation.
    """

    HEAD = (
        "import numpy as np\n"
        "from repro.utils.contracts import hot_path, shapes\n"
        "@hot_path\n"
        '@shapes("m n:float")\n'
        "def kernel(x):\n"
    )

    def test_upcast_allocator_in_hot_path(self):
        src = self.HEAD + (
            "    out = np.zeros(x.shape[1])\n"
            "    return x + out\n"
        )
        assert rules_hit(src) == {"dtype-policy-violation"}

    def test_tied_allocator_is_clean(self):
        src = self.HEAD + (
            "    out = np.zeros(x.shape[1], dtype=x.dtype)\n"
            "    return x + out\n"
        )
        assert rules_hit(src) == set()

    def test_allocator_outside_hot_path_is_clean(self):
        src = self.HEAD.replace("hot_path, ", "").replace("@hot_path\n", "") + (
            "    out = np.zeros(x.shape[1])\n"
            "    return x + out\n"
        )
        assert rules_hit(src) == set()

    def test_dtype_dropping_op(self):
        src = self.HEAD + (
            "    tied = np.zeros(3, dtype=x.dtype)\n"
            "    wide = np.ones(3)\n"
            "    return tied + wide\n"
        )
        assert rules_hit(src) == {"dtype-policy-violation"}

    def test_both_tied_is_clean(self):
        src = self.HEAD + (
            "    a = np.zeros(3, dtype=x.dtype)\n"
            "    b = np.ones(3, dtype=x.dtype)\n"
            "    return a + b\n"
        )
        assert rules_hit(src) == set()


class TestChangedScoping:
    HELPER = "def helper(xs):\n    return sum(x for x in xs)\n"
    WORKER = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from helper import helper\n"
        "def work(values):\n"
        "    return helper(set(values))\n"
        "def run(items):\n"
        "    with ThreadPoolExecutor() as ex:\n"
        "        return [ex.submit(work, i) for i in items]\n"
    )

    def test_changed_worker_checked_against_unchanged_helper(self):
        report = lint_sources(
            [("helper.py", self.HELPER), ("worker.py", self.WORKER)],
            changed={"worker.py"},
        )
        assert "unordered-iteration" in {f.rule for f in report.findings}
        assert all(f.path == "worker.py" for f in report.findings)

    def test_unchanged_files_produce_no_findings(self):
        # A hazard anchored in an unchanged file stays out of the report.
        report = lint_sources(
            [("helper.py", self.HELPER), ("worker.py", self.WORKER)],
            changed={"helper.py"},
        )
        assert report.findings == []

    def test_empty_changed_set_reports_nothing(self):
        report = lint_sources(
            [("helper.py", self.HELPER), ("worker.py", self.WORKER)],
            changed=set(),
        )
        assert report.findings == []
        assert report.suppressed == []

    def test_lint_paths_changed_accepts_relative_and_absolute(self, tmp_path):
        helper = tmp_path / "helper.py"
        worker = tmp_path / "worker.py"
        helper.write_text(self.HELPER)
        worker.write_text(self.WORKER)
        report = lint_paths([tmp_path], changed=[str(worker.resolve())])
        assert "unordered-iteration" in {f.rule for f in report.findings}

    def test_cli_changed_with_no_changes_exits_zero(self, tmp_path, capsys, monkeypatch):
        import subprocess

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q", "-b", "main"], check=True)
        subprocess.run(["git", "config", "user.email", "t@example.com"], check=True)
        subprocess.run(["git", "config", "user.name", "t"], check=True)
        (tmp_path / "mod.py").write_text("x = 1\n")
        subprocess.run(["git", "add", "."], check=True)
        subprocess.run(["git", "commit", "-q", "-m", "seed"], check=True)
        rc = main(["lint", str(tmp_path), "--changed", "--base", "HEAD"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no Python files changed" in out

    def test_cli_changed_reports_only_changed_file(self, tmp_path, capsys, monkeypatch):
        import subprocess

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q", "-b", "main"], check=True)
        subprocess.run(["git", "config", "user.email", "t@example.com"], check=True)
        subprocess.run(["git", "config", "user.name", "t"], check=True)
        (tmp_path / "helper.py").write_text(self.HELPER)
        subprocess.run(["git", "add", "."], check=True)
        subprocess.run(["git", "commit", "-q", "-m", "seed"], check=True)
        (tmp_path / "worker.py").write_text(self.WORKER)  # untracked = changed
        rc = main(["lint", str(tmp_path), "--changed", "--base", "HEAD"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "worker.py" in out
        assert "unordered-iteration" in out

    def test_cli_update_baseline_rejects_changed(self, tmp_path, capsys):
        rc = main(
            [
                "lint",
                str(tmp_path),
                "--changed",
                "--baseline",
                str(tmp_path / "b.json"),
                "--update-baseline",
            ]
        )
        assert rc == 2
        assert "full run" in capsys.readouterr().err


class TestJsonTrace:
    def test_json_output_carries_trace(self, tmp_path, capsys):
        mod = tmp_path / "congestion.py"
        mod.write_text(CONGESTION_REGRESSION)
        rc = main(["lint", str(mod), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        transitive = [
            f for f in payload if f["rule"] == "unordered-iteration" and f["trace"]
        ]
        assert transitive
        assert len(transitive[0]["trace"]) >= 3
