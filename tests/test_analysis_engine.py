"""Tests for repro.analysis.engine (symbol table + dataflow)."""

import ast
import textwrap

from repro.analysis.engine import (
    SymbolTable,
    find_workers,
    is_rng_expr,
    is_unordered_expr,
    scope_mutations,
)


def build(source):
    tree = ast.parse(textwrap.dedent(source))
    return tree, SymbolTable.build(tree)


def function_scope(table, name):
    for scope, func in table.functions():
        if func.name == name:
            return table.scope_of(func)
    raise AssertionError(f"no function {name!r}")


class TestScopeResolution:
    SOURCE = """
        import os
        SHARED = {}

        def outer(param):
            local = 1

            def inner():
                return param + local + SHARED["k"] + os.sep + missing
            return inner
    """

    def test_resolution_kinds(self):
        _, table = build(self.SOURCE)
        inner = function_scope(table, "inner")
        assert inner.resolve("param") == "closure"
        assert inner.resolve("local") == "closure"
        assert inner.resolve("SHARED") == "global"
        assert inner.resolve("os") == "global"
        assert inner.resolve("missing") == "unknown"
        outer = function_scope(table, "outer")
        assert outer.resolve("param") == "param"
        assert outer.resolve("local") == "local"

    def test_global_and_nonlocal_declarations(self):
        _, table = build(
            """
            COUNT = 0

            def bump():
                global COUNT
                COUNT += 1

            def outer():
                x = 0

                def inner():
                    nonlocal x
                    x += 1
            """
        )
        assert function_scope(table, "bump").resolve("COUNT") == "global"
        assert function_scope(table, "inner").resolve("x") == "closure"

    def test_mutable_default_params_tracked(self):
        _, table = build("def f(a, cache={}, names=[]): ...")
        scope = function_scope(table, "f")
        assert scope.mutable_default_params == {"cache", "names"}


class TestDataflowFacts:
    def test_set_like_bindings(self):
        _, table = build(
            """
            def f(values):
                seen = set(values)
                frozen = frozenset(values)
                literal = {1, 2}
                comp = {v for v in values}
                plain = list(values)
            """
        )
        scope = function_scope(table, "f")
        assert {"seen", "frozen", "literal", "comp"} <= scope.set_like
        assert "plain" not in scope.set_like

    def test_rng_bindings(self):
        _, table = build(
            """
            import numpy as np
            from repro.utils.rng import ensure_rng

            def f(seed):
                rng = ensure_rng(seed)
                gen = np.random.default_rng(seed)
                other = seed + 1
            """
        )
        scope = function_scope(table, "f")
        assert {"rng", "gen"} <= set(scope.rng_bound)
        assert "other" not in scope.rng_bound

    def test_is_rng_expr(self):
        assert is_rng_expr(ast.parse("ensure_rng(0)", mode="eval").body)
        assert is_rng_expr(
            ast.parse("np.random.default_rng(0)", mode="eval").body
        )
        assert not is_rng_expr(ast.parse("make_data(0)", mode="eval").body)

    def test_is_unordered_expr(self):
        _, table = build("def f(x):\n    s = set(x)\n    l = list(x)\n")
        scope = function_scope(table, "f")

        def expr(text):
            return ast.parse(text, mode="eval").body

        assert is_unordered_expr(expr("set(x)"), scope)
        assert is_unordered_expr(expr("{1, 2}"), scope)
        assert is_unordered_expr(expr("os.listdir(p)"), scope)
        assert is_unordered_expr(expr("glob.glob('*.py')"), scope)
        assert is_unordered_expr(expr("s"), scope)
        assert not is_unordered_expr(expr("l"), scope)
        assert not is_unordered_expr(expr("sorted(s)"), scope)


class TestScopeMutations:
    def test_mutation_kinds(self):
        _, table = build(
            """
            TOTALS = {}

            def work(item, acc=[]):
                TOTALS[item] = 1
                acc.append(item)
                local = []
                local.append(item)
            """
        )
        scope = function_scope(table, "work")
        facts = {
            (m.name, m.resolution, m.kind) for m in scope_mutations(scope)
        }
        assert ("TOTALS", "global", "item-assign") in facts
        assert ("acc", "param", "method") in facts
        assert ("local", "local", "method") in facts


class TestFindWorkers:
    def test_parallel_map_worker(self):
        tree, table = build(
            """
            from repro.utils.parallel import parallel_map

            def work(item):
                return item

            def run(items):
                return parallel_map(work, items, max_workers=4)
            """
        )
        workers = find_workers(tree, table)
        assert len(workers) == 1
        assert workers[0].fn_def is not None
        assert workers[0].fn_def.name == "work"
        assert workers[0].backend == "thread"

    def test_executor_submit_and_trampoline(self):
        tree, table = build(
            """
            from concurrent.futures import ProcessPoolExecutor

            def work(item):
                return item

            def run(items):
                with ProcessPoolExecutor() as pool:
                    futures = [
                        pool.submit(lambda it: work(it), item)
                        for item in items
                    ]
                return futures
            """
        )
        (worker,) = find_workers(tree, table)
        assert worker.backend == "process"
        assert worker.fn_def is not None and worker.fn_def.name == "work"

    def test_no_workers_in_plain_code(self):
        tree, table = build(
            """
            def run(items):
                return [item * 2 for item in items]
            """
        )
        assert find_workers(tree, table) == []
