"""Tests for the bottom-up effect-inference fixpoint and @effects contracts.

Covers direct-effect extraction for all seven effects, the transitive
fixpoint (chains, mutual recursion, obs transparency, the constructor
exemption), the interprocedural unordered-argument join, and the static
verification of ``@effects(...)`` declarations.
"""

import pytest

from repro.analysis.callgraph import FunctionId, Program
from repro.analysis.effects import (
    contract_findings,
    direct_effects,
    infer_effects,
    parse_contract,
    unordered_param_sinks,
)


def program_of(source, name="m"):
    return Program.from_sources({name: source})


def effects_of(source, qualname, name="m"):
    """(effect, kind) pairs reachable from one function."""
    program = program_of(source, name)
    pe = infer_effects(program)
    return set(pe.effects_of(FunctionId(name, qualname)))


def direct_of(source, qualname, name="m"):
    program = program_of(source, name)
    info = program.functions[FunctionId(name, qualname)]
    return {(s.effect, s.kind) for s in direct_effects(info)}


class TestDirectEffects:
    def test_global_mutation(self):
        src = "CACHE = {}\ndef f(k, v):\n    CACHE[k] = v\n"
        assert ("mutates-global", "global") in direct_of(src, "f")

    def test_global_rebind(self):
        src = "N = 0\ndef f():\n    global N\n    N = 1\n"
        assert ("mutates-global", "rebind") in direct_of(src, "f")

    def test_closure_mutation(self):
        src = (
            "def outer():\n"
            "    acc = []\n"
            "    def inner(x):\n"
            "        acc.append(x)\n"
            "    return inner\n"
        )
        assert ("mutates-nonlocal", "closure") in direct_of(src, "outer.inner")

    def test_mutable_default_mutation(self):
        src = "def f(x, cache={}):\n    cache[x] = 1\n"
        assert ("mutates-nonlocal", "mutable-default") in direct_of(src, "f")

    def test_instance_state_outside_init(self):
        src = (
            "class C:\n"
            "    def bump(self):\n"
            "        self.count = 1\n"
        )
        assert ("mutates-nonlocal", "instance-state") in direct_of(src, "C.bump")

    def test_constructor_self_mutation_exempt(self):
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
        )
        assert direct_of(src, "C.__init__") == set()

    def test_rng_global_numpy(self):
        src = "import numpy as np\ndef f():\n    return np.random.random()\n"
        assert ("rng", "rng-global") in direct_of(src, "f")

    def test_rng_global_stdlib(self):
        src = "import random\ndef f():\n    return random.random()\n"
        assert ("rng", "rng-global") in direct_of(src, "f")

    def test_rng_create_local(self):
        src = (
            "from repro.utils.rng import ensure_rng\n"
            "def f(seed):\n"
            "    return ensure_rng(seed)\n"
        )
        assert ("rng", "rng-create") in direct_of(src, "f")

    def test_rng_draw_from_param(self):
        src = "def f(rng):\n    return rng.normal()\n"
        assert ("rng", "rng-draw") in direct_of(src, "f")

    def test_rng_shared_from_global(self):
        src = (
            "import numpy as np\n"
            "RNG = np.random.default_rng(0)\n"
            "def f():\n"
            "    return RNG.normal()\n"
        )
        assert ("rng", "rng-shared") in direct_of(src, "f")

    def test_wall_clock(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert ("wall-clock", "clock") in direct_of(src, "f")

    def test_io_open(self):
        src = "def f(p):\n    return open(p).read()\n"
        assert ("io", "stream") in direct_of(src, "f")

    def test_io_numpy_save(self):
        src = "import numpy as np\ndef f(p, arr):\n    np.save(p, arr)\n"
        assert ("io", "serialization") in direct_of(src, "f")

    def test_io_path_write(self):
        src = "def f(p, text):\n    p.write_text(text)\n"
        assert ("io", "filesystem") in direct_of(src, "f")

    def test_env_read(self):
        src = "import os\ndef f():\n    return os.environ['HOME']\n"
        assert ("env", "environ") in direct_of(src, "f")

    def test_unordered_loop_with_sink(self):
        src = (
            "def f(values):\n"
            "    total = 0.0\n"
            "    for v in set(values):\n"
            "        total += v\n"
            "    return total\n"
        )
        assert ("unordered-iteration", "loop") in direct_of(src, "f")

    def test_pure_numeric_is_clean(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.linalg.solve(a.T @ a, a.T @ b)\n"
        )
        assert direct_of(src, "f") == set()


class TestFixpoint:
    def test_effect_propagates_one_hop(self):
        src = (
            "import numpy as np\n"
            "def noisy():\n"
            "    return np.random.random()\n"
            "def caller():\n"
            "    return noisy()\n"
        )
        assert ("rng", "rng-global") in effects_of(src, "caller")

    def test_chain_records_hops(self):
        src = (
            "import time\n"
            "def c():\n"
            "    return time.time()\n"
            "def b():\n"
            "    return c()\n"
            "def a():\n"
            "    return b()\n"
        )
        program = program_of(src)
        pe = infer_effects(program)
        entry = pe.effects_of(FunctionId("m", "a"))[("wall-clock", "clock")]
        assert entry.hops == 2
        assert [step.callee.qualname for step in entry.chain] == ["b", "c"]

    def test_mutual_recursion_converges_and_shares_effects(self):
        src = (
            "import numpy as np\n"
            "def ping(n):\n"
            "    return 0 if n == 0 else pong(n - 1)\n"
            "def pong(n):\n"
            "    np.random.random()\n"
            "    return ping(n - 1)\n"
        )
        assert ("rng", "rng-global") in effects_of(src, "ping")
        assert ("rng", "rng-global") in effects_of(src, "pong")

    def test_obs_calls_are_transparent(self):
        program = Program.from_sources(
            {
                "repro.obs.trace": (
                    "import time\n"
                    "def span(name):\n"
                    "    return time.perf_counter()\n"
                ),
                "app": (
                    "from repro.obs import trace\n"
                    "def instrumented():\n"
                    "    trace.span('x')\n"
                ),
            }
        )
        pe = infer_effects(program)
        assert pe.effects_of(FunctionId("app", "instrumented")) == {}
        # The obs function itself still owns its effect.
        assert ("wall-clock", "clock") in pe.effects_of(
            FunctionId("repro.obs.trace", "span")
        )

    def test_cross_module_propagation(self):
        program = Program.from_sources(
            {
                "pkg.util": "def touch(p):\n    p.write_text('x')\n",
                "pkg.main": (
                    "from pkg.util import touch\n"
                    "def run(p):\n"
                    "    touch(p)\n"
                ),
            }
        )
        pe = infer_effects(program)
        assert ("io", "filesystem") in pe.effects_of(FunctionId("pkg.main", "run"))


class TestUnorderedParamSinks:
    def test_numpy_mean_over_comprehension_of_param(self):
        src = (
            "import numpy as np\n"
            "def helper(cluster, row):\n"
            "    return float(np.mean([row[s] for s in cluster]))\n"
        )
        program = program_of(src)
        info = program.functions[FunctionId("m", "helper")]
        assert "cluster" in unordered_param_sinks(info)

    def test_sum_generator_over_param(self):
        src = "def helper(xs):\n    return sum(x for x in xs)\n"
        program = program_of(src)
        info = program.functions[FunctionId("m", "helper")]
        assert "xs" in unordered_param_sinks(info)

    def test_sorted_param_is_not_a_sink(self):
        src = "def helper(xs):\n    return [x for x in sorted(xs)]\n"
        program = program_of(src)
        info = program.functions[FunctionId("m", "helper")]
        assert unordered_param_sinks(info) == {}

    def test_set_argument_joins_into_callers_effects(self):
        src = (
            "def helper(xs):\n"
            "    return sum(x for x in xs)\n"
            "def caller(values):\n"
            "    distinct = set(values)\n"
            "    return helper(distinct)\n"
        )
        table = effects_of(src, "caller")
        assert ("unordered-iteration", "unordered-arg") in table

    def test_list_argument_is_clean(self):
        src = (
            "def helper(xs):\n"
            "    return sum(x for x in xs)\n"
            "def caller(values):\n"
            "    ordered = sorted(values)\n"
            "    return helper(ordered)\n"
        )
        assert ("unordered-iteration", "unordered-arg") not in effects_of(
            src, "caller"
        )


class TestContracts:
    def test_parse_pure(self):
        src = (
            "from repro.utils.contracts import effects\n"
            "@effects('pure')\n"
            "def f(x):\n"
            "    return x\n"
        )
        program = program_of(src)
        contract = parse_contract(program.functions[FunctionId("m", "f")])
        assert contract is not None
        assert contract.allowed == frozenset()

    def test_parse_allow_set(self):
        src = (
            "from repro.utils.contracts import effects\n"
            "@effects(allow={'rng', 'io'})\n"
            "def f(x):\n"
            "    return x\n"
        )
        program = program_of(src)
        contract = parse_contract(program.functions[FunctionId("m", "f")])
        assert contract.allowed == frozenset({"rng", "io"})

    def test_no_decorator_no_contract(self):
        program = program_of("def f(x):\n    return x\n")
        assert parse_contract(program.functions[FunctionId("m", "f")]) is None

    def test_pure_function_satisfies_pure(self):
        src = (
            "from repro.utils.contracts import effects\n"
            "@effects('pure')\n"
            "def f(a, b):\n"
            "    return a + b\n"
        )
        program = program_of(src)
        assert contract_findings(program, infer_effects(program)) == []

    def test_transitive_violation_reported_with_chain(self):
        src = (
            "import numpy as np\n"
            "from repro.utils.contracts import effects\n"
            "def noisy():\n"
            "    return np.random.random()\n"
            "@effects('pure')\n"
            "def kernel(x):\n"
            "    return x + noisy()\n"
        )
        program = program_of(src)
        findings = contract_findings(program, infer_effects(program))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "effect-contract"
        assert finding.severity == "error"
        assert "reaches effect 'rng'" in finding.message
        # def line anchor + provenance through the helper
        assert finding.line == 6
        assert len(finding.trace) == 2
        assert "calls noisy()" in finding.trace[0].note

    def test_allowed_effect_passes(self):
        src = (
            "import numpy as np\n"
            "from repro.utils.contracts import effects\n"
            "@effects(allow={'rng'})\n"
            "def f(rng):\n"
            "    return rng.normal()\n"
        )
        program = program_of(src)
        assert contract_findings(program, infer_effects(program)) == []

    def test_one_finding_per_violated_effect(self):
        src = (
            "import numpy as np\n"
            "import time\n"
            "from repro.utils.contracts import effects\n"
            "@effects('pure')\n"
            "def f():\n"
            "    time.sleep(0)\n"
            "    t = time.time()\n"
            "    return np.random.random() + t\n"
        )
        program = program_of(src)
        findings = contract_findings(program, infer_effects(program))
        assert {f.message.split("effect ")[1][1:4] for f in findings} == {
            "rng",
            "wal",
        }
        assert len(findings) == 2

    @pytest.mark.parametrize(
        "submit",
        [
            "[_worker(x) for x in items]",
            "parallel_map(_worker, items)",
            "parallel_map(lambda x: _worker(x), items)",
        ],
        ids=["loop", "pool", "pool-trampoline"],
    )
    def test_pool_worker_effects_reach_submitter(self, submit):
        # A worker handed to a pool runs on the submitter's behalf, so
        # its effects count against the submitter's contract.
        src = (
            "from repro.utils.contracts import effects\n"
            "from repro.utils.parallel import parallel_map\n"
            "SEEN = []\n"
            "def _worker(x):\n"
            "    SEEN.append(x)\n"
            "    return x\n"
            "@effects('pure')\n"
            "def run(items):\n"
            f"    return {submit}\n"
        )
        program = program_of(src)
        findings = contract_findings(program, infer_effects(program))
        assert [f.rule for f in findings] == ["effect-contract"]
        assert "reaches effect 'mutates-global'" in findings[0].message
        assert findings[0].trace[-1].function == "_worker"


class TestRuntimeDecorator:
    def test_effects_decorator_is_zero_cost_marker(self):
        from repro.utils.contracts import effects

        @effects("pure")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert f.__repro_effects__ == frozenset()

    def test_effects_allow_records_names(self):
        from repro.utils.contracts import effects

        @effects(allow={"rng"})
        def f():
            pass

        assert f.__repro_effects__ == frozenset({"rng"})

    def test_effects_rejects_unknown_name(self):
        from repro.utils.contracts import effects

        with pytest.raises(ValueError, match="unknown effect"):
            effects("definitely-not-an-effect")

    def test_effects_rejects_pure_plus_allow(self):
        from repro.utils.contracts import effects

        with pytest.raises(ValueError, match="pure"):
            effects("pure", allow={"rng"})

    def test_hot_path_marker(self):
        from repro.utils.contracts import hot_path

        @hot_path
        def f(x):
            return x * 2

        assert f(2) == 4
        assert f.__repro_hot_path__ is True
