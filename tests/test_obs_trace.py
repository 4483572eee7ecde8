"""Tests for repro.obs.trace: spans, nesting, and pool re-parenting."""

import threading

import pytest

from repro.obs import trace
from repro.utils.parallel import parallel_map


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and empty."""
    trace.disable()
    trace.reset()
    yield
    trace.disable()
    trace.reset()


def _square(x):
    """A job that opens a span of its own."""
    with trace.span("work.body", x=x):
        return x * x


class TestSwitch:
    def test_disabled_by_default(self):
        assert not trace.enabled()

    def test_enable_disable_roundtrip(self):
        trace.enable()
        assert trace.enabled()
        trace.disable()
        assert not trace.enabled()

    def test_disabled_span_is_shared_noop(self):
        a = trace.span("anything")
        b = trace.span("else")
        assert a is b  # the no-op singleton: no allocation per call
        with a as s:
            assert s.set(k=1) is s
        assert len(trace.collector()) == 0

    def test_disabled_records_nothing(self):
        with trace.span("invisible"):
            pass
        assert trace.collector().snapshot() == []


class TestSpans:
    def test_records_name_timing_and_attrs(self):
        trace.enable()
        with trace.span("phase.alpha", size=7) as s:
            s.set(extra="yes")
        (recorded,) = trace.collector().snapshot()
        assert recorded.name == "phase.alpha"
        assert recorded.attrs == {"size": 7, "extra": "yes"}
        assert recorded.end_s >= recorded.start_s
        assert recorded.duration_s == recorded.end_s - recorded.start_s
        assert recorded.parent_id is None

    def test_nesting_sets_parent(self):
        trace.enable()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        by_name = {s.name: s for s in trace.collector().snapshot()}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_siblings_share_parent(self):
        trace.enable()
        with trace.span("outer"):
            with trace.span("first"):
                pass
            with trace.span("second"):
                pass
        by_name = {s.name: s for s in trace.collector().snapshot()}
        assert by_name["first"].parent_id == by_name["outer"].span_id
        assert by_name["second"].parent_id == by_name["outer"].span_id

    def test_exception_marks_error_and_still_records(self):
        trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        (recorded,) = trace.collector().snapshot()
        assert recorded.attrs["error"] == "RuntimeError"
        assert trace.current_span_id() is None  # stack unwound

    def test_threads_nest_independently(self):
        trace.enable()
        seen = {}

        def body():
            with trace.span("thread.root"):
                seen["inner_parent"] = trace.current_span_id()

        with trace.span("driver"):
            t = threading.Thread(target=body)
            t.start()
            t.join()
        by_name = {s.name: s for s in trace.collector().snapshot()}
        # A plain thread (no pool_task) has its own empty stack: root span.
        assert by_name["thread.root"].parent_id is None

    def test_payload_roundtrip(self):
        trace.enable()
        with trace.span("rt", k="v"):
            pass
        (s,) = trace.collector().snapshot()
        assert trace.Span.from_payload(s.to_payload()) == s


class TestTracedDecorator:
    def test_records_span_per_call(self):
        trace.enable()

        @trace.traced("deco.name")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert f(2) == 3
        names = [s.name for s in trace.collector().snapshot()]
        assert names == ["deco.name", "deco.name"]

    def test_defaults_to_qualname_and_preserves_metadata(self):
        @trace.traced()
        def documented(x):
            """Docstring survives wrapping."""
            return x

        assert documented.__doc__ == "Docstring survives wrapping."
        trace.enable()
        documented(0)
        (s,) = trace.collector().snapshot()
        assert "documented" in s.name

    def test_disabled_fast_path_forwards(self):
        @trace.traced("never")
        def f(x):
            return x

        assert f(5) == 5
        assert len(trace.collector()) == 0


class TestPoolComposition:
    def test_serial_backend_records_job_spans(self):
        trace.enable()
        with trace.span("driver") as d:
            out = parallel_map(_square, [1, 2, 3], max_workers=1,
                               span_name="job.sq")
        assert out == [1, 4, 9]
        spans = trace.collector().snapshot()
        jobs = [s for s in spans if s.name == "job.sq"]
        assert len(jobs) == 3
        assert all(j.parent_id == d.span_id for j in jobs)

    def test_thread_backend_reparents_under_dispatch_span(self):
        trace.enable()
        with trace.span("driver") as d:
            out = parallel_map(_square, list(range(4)), max_workers=2,
                               span_name="job.sq")
        assert out == [0, 1, 4, 9]
        spans = trace.collector().snapshot()
        jobs = [s for s in spans if s.name == "job.sq"]
        bodies = [s for s in spans if s.name == "work.body"]
        assert len(jobs) == len(bodies) == 4
        assert all(j.parent_id == d.span_id for j in jobs)
        job_ids = {j.span_id for j in jobs}
        assert all(b.parent_id in job_ids for b in bodies)

    def test_disabled_pool_records_nothing(self):
        out = parallel_map(_square, [1, 2], max_workers=2)
        assert out == [1, 4]
        # _square's span call hit the no-op path inside the workers too.
        assert len(trace.collector()) == 0

    def test_span_attrs_do_not_change_results(self):
        baseline = parallel_map(_square, list(range(6)), max_workers=2)
        trace.enable()
        traced_run = parallel_map(_square, list(range(6)), max_workers=2)
        assert traced_run == baseline


class TestSpanTree:
    def test_roots_and_children(self):
        trace.enable()
        with trace.span("root"):
            with trace.span("child"):
                with trace.span("grandchild"):
                    pass
        roots, children = trace.span_tree(trace.collector().snapshot())
        assert [r.name for r in roots] == ["root"]
        (child,) = children[roots[0].span_id]
        assert child.name == "child"
        (grand,) = children[child.span_id]
        assert grand.name == "grandchild"

    def test_orphan_becomes_root(self):
        trace.enable()
        with trace.span("kept"):
            pass
        (s,) = trace.collector().snapshot()
        orphan = trace.Span(
            name="orphan", span_id=s.span_id + 1000, parent_id=999_999,
            start_s=0.0, end_s=1.0, thread="t", pid=0,
        )
        roots, _ = trace.span_tree([s, orphan])
        assert {r.name for r in roots} == {"kept", "orphan"}
