"""Tests for repro.analysis.parallel_rules (positive + suppressed each)."""

import textwrap

from repro.analysis import lint_source


def rules_fired(source, path="fixture.py"):
    report = lint_source(textwrap.dedent(source), path=path)
    return sorted({f.rule for f in report.findings})


def lint(source, path="fixture.py"):
    return lint_source(textwrap.dedent(source), path=path)


def suppress(source, needle, rule):
    """Insert a disable-next-line comment above the first ``needle`` line."""
    lines = textwrap.dedent(source).splitlines()
    out = []
    done = False
    for line in lines:
        if not done and needle in line:
            indent = line[: len(line) - len(line.lstrip())]
            out.append(f"{indent}# repro-lint: disable-next-line={rule}")
            done = True
        out.append(line)
    assert done, f"needle {needle!r} not found"
    return "\n".join(out) + "\n"


class TestWorkerSharedState:
    POSITIVE = """
        from repro.utils.parallel import parallel_map

        TOTALS = {}

        def work(item):
            TOTALS[item] = item * 2
            return item

        def run(items):
            return parallel_map(work, items, max_workers=4)
    """

    def test_fires_on_global_mutation(self):
        assert "worker-shared-state" in rules_fired(self.POSITIVE)

    def test_fires_on_closure_mutation(self):
        src = """
            from repro.utils.parallel import parallel_map

            def run(items):
                acc = []

                def work(item):
                    acc.append(item)

                return parallel_map(work, items, max_workers=4)
        """
        assert "worker-shared-state" in rules_fired(src)

    def test_fires_on_mutable_default(self):
        src = """
            from repro.utils.parallel import parallel_map

            def work(item, cache={}):
                cache[item] = True
                return item

            def run(items):
                return parallel_map(work, items, max_workers=4)
        """
        assert "worker-shared-state" in rules_fired(src)

    def test_clean_worker_passes(self):
        src = """
            from repro.utils.parallel import parallel_map

            def work(item):
                local = []
                local.append(item)
                return local

            def run(items):
                return parallel_map(work, items, max_workers=4)
        """
        assert "worker-shared-state" not in rules_fired(src)

    def test_suppression(self):
        src = suppress(self.POSITIVE, "TOTALS[item]", "worker-shared-state")
        report = lint_source(src, path="fixture.py")
        assert "worker-shared-state" not in {f.rule for f in report.findings}
        assert "worker-shared-state" in {f.rule for f in report.suppressed}


class TestForkUnsafeRng:
    POSITIVE = """
        from concurrent.futures import ProcessPoolExecutor

        from repro.utils.rng import ensure_rng

        def run(items):
            rng = ensure_rng(0)

            def work(item):
                return rng.random() + item

            with ProcessPoolExecutor(max_workers=4) as pool:
                return [pool.submit(work, item) for item in items]
    """

    def test_fires_on_captured_rng_process_pool(self):
        assert "fork-unsafe-rng" in rules_fired(self.POSITIVE)

    def test_thread_pool_capture_is_fine(self):
        src = self.POSITIVE.replace("ProcessPoolExecutor", "ThreadPoolExecutor")
        assert "fork-unsafe-rng" not in rules_fired(src)

    def test_rng_created_inside_worker_is_fine(self):
        src = """
            from concurrent.futures import ProcessPoolExecutor

            from repro.utils.rng import ensure_rng

            def run(items):
                def work(item):
                    rng = ensure_rng(item)
                    return rng.random()

                with ProcessPoolExecutor(max_workers=4) as pool:
                    return [pool.submit(work, item) for item in items]
        """
        assert "fork-unsafe-rng" not in rules_fired(src)

    def test_suppression(self):
        src = suppress(self.POSITIVE, "return rng.random()", "fork-unsafe-rng")
        report = lint_source(src, path="fixture.py")
        assert "fork-unsafe-rng" not in {f.rule for f in report.findings}
        assert "fork-unsafe-rng" in {f.rule for f in report.suppressed}


class TestUnorderedIteration:
    POSITIVE = """
        def total(values):
            seen = set(values)
            out = 0.0
            for v in seen:
                out += v
            return out
    """

    def test_fires_on_float_accumulation_over_set(self):
        assert "unordered-iteration" in rules_fired(self.POSITIVE)

    def test_fires_on_sum_over_set(self):
        assert "unordered-iteration" in rules_fired(
            "def f(values):\n    return sum(v for v in set(values))\n"
        )

    def test_fires_on_listdir_append(self):
        src = """
            import os

            def collect(path):
                out = []
                for name in os.listdir(path):
                    out.append(name)
                return out
        """
        assert "unordered-iteration" in rules_fired(src)

    def test_sorted_source_is_fine(self):
        src = """
            def total(values):
                seen = set(values)
                out = 0.0
                for v in sorted(seen):
                    out += v
                return out
        """
        assert "unordered-iteration" not in rules_fired(src)

    def test_order_insensitive_sink_is_fine(self):
        assert "unordered-iteration" not in rules_fired(
            "def f(values):\n    return max(v for v in set(values))\n"
        )

    def test_suppression(self):
        src = suppress(self.POSITIVE, "for v in seen:", "unordered-iteration")
        report = lint_source(src, path="fixture.py")
        assert "unordered-iteration" not in {f.rule for f in report.findings}
        assert "unordered-iteration" in {f.rule for f in report.suppressed}


class TestUnlockedCacheMutation:
    POSITIVE = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._store = {}

            def put(self, key, value):
                self._store[key] = value

            def get(self, key):
                with self._lock:
                    return self._store.get(key)
    """

    def test_fires_on_unlocked_write(self):
        assert "unlocked-cache-mutation" in rules_fired(self.POSITIVE)

    def test_locked_write_is_fine(self):
        src = """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._store = {}

                def put(self, key, value):
                    with self._lock:
                        self._store[key] = value
        """
        assert "unlocked-cache-mutation" not in rules_fired(src)

    def test_lockless_class_is_ignored(self):
        src = """
            class Memo:
                def __init__(self):
                    self._store = {}

                def put(self, key, value):
                    self._store[key] = value
        """
        assert "unlocked-cache-mutation" not in rules_fired(src)

    def test_init_writes_are_exempt(self):
        src = """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._store = {}
                    self._store["warm"] = 1
        """
        assert "unlocked-cache-mutation" not in rules_fired(src)

    def test_suppression(self):
        src = suppress(
            self.POSITIVE, "self._store[key] = value", "unlocked-cache-mutation"
        )
        report = lint_source(src, path="fixture.py")
        fired = {f.rule for f in report.findings}
        assert "unlocked-cache-mutation" not in fired
        assert "unlocked-cache-mutation" in {f.rule for f in report.suppressed}


class TestSubmitResultOrdering:
    POSITIVE = """
        from concurrent.futures import ThreadPoolExecutor, as_completed

        def run(fn, items):
            out = []
            with ThreadPoolExecutor() as pool:
                futures = [pool.submit(fn, item) for item in items]
                for future in as_completed(futures):
                    out.append(future.result())
            return out
    """

    def test_fires_on_positional_aggregation(self):
        assert "submit-result-ordering" in rules_fired(self.POSITIVE)

    def test_fires_on_comprehension(self):
        src = """
            from concurrent.futures import as_completed

            def gather(futures):
                return [f.result() for f in as_completed(futures)]
        """
        assert "submit-result-ordering" in rules_fired(src)

    def test_keyed_aggregation_is_fine(self):
        src = """
            from concurrent.futures import ThreadPoolExecutor, as_completed

            def run(fn, items):
                out = {}
                with ThreadPoolExecutor() as pool:
                    futures = {
                        pool.submit(fn, item): item for item in items
                    }
                    for future in as_completed(futures):
                        out[futures[future]] = future.result()
                return out
        """
        assert "submit-result-ordering" not in rules_fired(src)

    def test_suppression(self):
        src = suppress(
            self.POSITIVE,
            "for future in as_completed(futures):",
            "submit-result-ordering",
        )
        report = lint_source(src, path="fixture.py")
        assert "submit-result-ordering" not in {f.rule for f in report.findings}
        assert "submit-result-ordering" in {f.rule for f in report.suppressed}


class TestSeverities:
    def test_severity_levels(self):
        from repro.analysis import REGISTRY

        assert REGISTRY["worker-shared-state"].severity == "error"
        assert REGISTRY["fork-unsafe-rng"].severity == "error"
        assert REGISTRY["unordered-iteration"].severity == "warning"
        assert REGISTRY["unlocked-cache-mutation"].severity == "error"
        assert REGISTRY["submit-result-ordering"].severity == "error"

    def test_findings_carry_severity_and_snippet(self):
        report = lint(TestWorkerSharedState.POSITIVE)
        finding = next(
            f for f in report.findings if f.rule == "worker-shared-state"
        )
        assert finding.severity == "error"
        assert "TOTALS" in finding.snippet
        assert ": error: [worker-shared-state]" in finding.render()


class TestProjectSourceIsClean:
    def test_src_tree_has_no_active_findings(self):
        from pathlib import Path

        from repro.analysis import lint_paths

        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        report = lint_paths([str(src)])
        assert report.findings == []
