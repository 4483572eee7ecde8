"""Tests for the shared worker-pool helper (repro.utils.parallel)."""

import pytest

from repro.utils.parallel import available_workers, parallel_map, resolve_workers


def _square(x):
    return x * x


class TestResolveWorkers:
    def test_none_means_serial(self):
        assert resolve_workers(None, 8) == 1

    def test_zero_means_serial(self):
        assert resolve_workers(0, 8) == 1

    def test_one_means_serial(self):
        assert resolve_workers(1, 8) == 1

    def test_capped_by_item_count(self):
        assert resolve_workers(16, 3) == 3

    def test_explicit_count(self):
        assert resolve_workers(2, 8) == 2

    def test_no_items_no_workers(self):
        assert resolve_workers(4, 0) == 1

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="max_workers"):
            resolve_workers(-1, 4)


class TestParallelMap:
    def test_serial_default_preserves_order(self):
        assert parallel_map(_square, range(6)) == [0, 1, 4, 9, 16, 25]

    @pytest.mark.parametrize("max_workers", [1, 2], ids=["serial", "thread"])
    def test_backends_agree_with_serial(self, max_workers):
        # One worker runs the plain loop; two run the thread pool.
        items = list(range(10))
        expected = [_square(x) for x in items]
        got = parallel_map(_square, items, max_workers=max_workers)
        assert got == expected

    def test_thread_pool_preserves_submission_order(self):
        # Reverse-sorted sleep-free workload: ordering must come from
        # submission order, not completion order.
        items = list(range(20, 0, -1))
        got = parallel_map(_square, items, max_workers=4)
        assert got == [_square(x) for x in items]

    def test_empty_input(self):
        assert parallel_map(_square, [], max_workers=4) == []

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError("worker failure")

        with pytest.raises(RuntimeError, match="worker failure"):
            parallel_map(boom, [1, 2], max_workers=2)

    def test_available_workers_positive(self):
        assert available_workers() >= 1
