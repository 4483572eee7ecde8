"""Tests for repro.cli."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.loaders import load_tcm, save_tcm


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd, extra in [
            ("gen-network", ["out.json"]),
            ("gen-dataset", ["net.json", "prefix"]),
            ("estimate", ["in.npz", "out.npz"]),
            ("evaluate", ["t.npz", "e.npz"]),
            ("integrity", ["in.npz"]),
            ("experiments", []),
        ]:
            args = parser.parse_args([cmd] + extra)
            assert callable(args.func)


class TestGenNetwork:
    def test_grid(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert main(["gen-network", str(out), "--rows", "3", "--cols", "3"]) == 0
        assert out.exists()
        assert "segments" in capsys.readouterr().out

    def test_ring(self, tmp_path):
        out = tmp_path / "ring.json"
        assert main([
            "gen-network", str(out), "--kind", "ring", "--rings", "2", "--radials", "4",
        ]) == 0
        from repro.roadnet.io import load_network

        net = load_network(out)
        assert net.num_segments > 0


class TestPipeline:
    @pytest.fixture()
    def network_path(self, tmp_path):
        out = tmp_path / "net.json"
        main(["gen-network", str(out), "--rows", "4", "--cols", "4"])
        return out

    def test_gen_dataset_estimate_evaluate(self, network_path, tmp_path, capsys):
        prefix = tmp_path / "data"
        rc = main([
            "gen-dataset", str(network_path), str(prefix),
            "--days", "0.25", "--vehicles", "40", "--slot-s", "900",
        ])
        assert rc == 0
        truth = tmp_path / "data-truth.npz"
        measured = tmp_path / "data-measured.npz"
        assert truth.exists() and measured.exists()

        estimate = tmp_path / "estimate.npz"
        rc = main([
            "estimate", str(measured), str(estimate),
            "--iterations", "20", "--lam", "10",
        ])
        assert rc == 0
        est = load_tcm(estimate)
        assert est.is_complete

        rc = main([
            "evaluate", str(truth), str(estimate), "--measured", str(measured),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NMAE" in out

    def test_sharded_estimate_with_network(self, network_path, tmp_path, capsys):
        prefix = tmp_path / "data"
        main([
            "gen-dataset", str(network_path), str(prefix),
            "--days", "0.25", "--vehicles", "40", "--slot-s", "900",
        ])
        measured = tmp_path / "data-measured.npz"
        estimate = tmp_path / "sharded.npz"
        rc = main([
            "estimate", str(measured), str(estimate),
            "--shards", "4", "--halo", "1", "--network", str(network_path),
            "--iterations", "20", "--lam", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shards" in out and "multilevel" in out
        assert load_tcm(estimate).is_complete

    def test_sharded_estimate_without_network_uses_contiguous(
        self, network_path, tmp_path, capsys
    ):
        prefix = tmp_path / "d2"
        main([
            "gen-dataset", str(network_path), str(prefix),
            "--days", "0.25", "--vehicles", "40", "--slot-s", "900",
        ])
        estimate = tmp_path / "sharded2.npz"
        rc = main([
            "estimate", str(tmp_path / "d2-measured.npz"), str(estimate),
            "--shards", "3", "--partitioner", "contiguous",
            "--iterations", "20", "--lam", "10",
        ])
        assert rc == 0
        assert load_tcm(estimate).is_complete
        capsys.readouterr()

    def test_single_partitioner_is_the_one_shard_solve(
        self, network_path, tmp_path, capsys
    ):
        """``--partitioner single`` runs one exact shard whatever --shards
        says, with or without a network, and writes --shards 1's bytes."""
        prefix = tmp_path / "d3"
        main([
            "gen-dataset", str(network_path), str(prefix),
            "--days", "0.25", "--vehicles", "40", "--slot-s", "900",
        ])
        measured = str(tmp_path / "d3-measured.npz")
        common = ["--iterations", "20", "--lam", "10"]
        one = tmp_path / "one.npz"
        assert main(["estimate", measured, str(one), *common]) == 0
        capsys.readouterr()
        for extra in ([], ["--network", str(network_path)]):
            out = tmp_path / f"single{len(extra)}.npz"
            rc = main([
                "estimate", measured, str(out), *common,
                "--shards", "4", "--partitioner", "single", *extra,
            ])
            assert rc == 0
            assert "over 1 shard (exact regime" in capsys.readouterr().out
            assert out.read_bytes() == one.read_bytes()

    def test_sharded_estimate_rejects_auto_tune(self, tmp_path, capsys):
        from repro.core.tcm import TrafficConditionMatrix

        rng = np.random.default_rng(0)
        values = rng.uniform(10.0, 60.0, (6, 8))
        mask = rng.random((6, 8)) < 0.5
        src = tmp_path / "m.npz"
        save_tcm(TrafficConditionMatrix(np.where(mask, values, 0.0)), src)
        rc = main([
            "estimate", str(src), str(tmp_path / "o.npz"),
            "--shards", "2", "--auto-tune",
        ])
        assert rc == 2
        assert "auto-tune" in capsys.readouterr().err

    def test_integrity_report(self, network_path, tmp_path, capsys):
        prefix = tmp_path / "d"
        main([
            "gen-dataset", str(network_path), str(prefix),
            "--days", "0.25", "--vehicles", "20", "--slot-s", "900",
        ])
        rc = main(["integrity", str(tmp_path / "d-measured.npz")])
        assert rc == 0
        assert "overall integrity" in capsys.readouterr().out

    def test_evaluate_shape_mismatch(self, tmp_path, capsys):
        from repro.core.tcm import TrafficConditionMatrix

        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        save_tcm(TrafficConditionMatrix(np.ones((2, 2))), a)
        save_tcm(TrafficConditionMatrix(np.ones((3, 2))), b)
        assert main(["evaluate", str(a), str(b)]) == 2


class TestPlanCommand:
    def test_plan_route(self, tmp_path, capsys):
        from repro.core.tcm import TimeGrid, TrafficConditionMatrix
        from repro.roadnet.generators import grid_city
        from repro.roadnet.io import save_network

        network = grid_city(3, 3, seed=0)
        net_path = tmp_path / "net.json"
        save_network(network, net_path)
        tcm = TrafficConditionMatrix(
            np.full((4, network.num_segments), 36.0),
            grid=TimeGrid(0.0, 900.0, 4),
            segment_ids=network.segment_ids,
        )
        tcm_path = tmp_path / "est.npz"
        save_tcm(tcm, tcm_path)

        rc = main(["plan", str(net_path), str(tcm_path), "0", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "route 0 -> 8" in out


class TestAnomaliesCommand:
    def test_detects_on_complete(self, tmp_path, capsys, truth_tcm):
        path = tmp_path / "tcm.npz"
        save_tcm(truth_tcm, path)
        rc = main(["anomalies", str(path), "--threshold", "3.0"])
        assert rc == 0
        assert "anomalous slot" in capsys.readouterr().out

    def test_rejects_partial(self, tmp_path, masked_tcm):
        path = tmp_path / "partial.npz"
        save_tcm(masked_tcm, path)
        assert main(["anomalies", str(path)]) == 2


class TestReportCommand:
    def test_parser_accepts(self):
        parser = build_parser()
        args = parser.parse_args(["report", "out.md", "--profile", "quick"])
        assert args.output == "out.md"


class TestLintCommand:
    DIRTY = "def total(values):\n    return sum(v for v in set(values))\n"
    CLEAN = "def total(values):\n    return sum(sorted(set(values)))\n"

    def test_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.DIRTY)
        clean = tmp_path / "clean.py"
        clean.write_text(self.CLEAN)
        assert main(["lint", str(clean)]) == 0
        assert main(["lint", str(dirty)]) == 1
        assert main(["lint", str(tmp_path / "missing.py")]) == 2
        assert main(["lint", str(dirty), "--rules", "no-such-rule"]) == 2
        capsys.readouterr()

    def test_sarif_output_file(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.DIRTY)
        out = tmp_path / "out.sarif"
        rc = main(["lint", str(dirty), "--format", "sarif", "--output", str(out)])
        assert rc == 1  # findings still fail the run
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]
        capsys.readouterr()

    def test_sarif_exit_2_on_usage_error(self, tmp_path, capsys):
        # CI's SARIF render step treats exit 1 as "findings rendered" and
        # anything else as a real failure; usage errors must stay exit 2
        # in SARIF mode too.
        missing = tmp_path / "missing.py"
        rc = main(["lint", str(missing), "--format", "sarif"])
        assert rc == 2
        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.DIRTY)
        assert main(["lint", str(dirty), "--format", "sarif",
                     "--rules", "no-such-rule"]) == 2
        capsys.readouterr()

    def test_baseline_roundtrip(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.DIRTY)
        baseline = tmp_path / "base.json"
        # --update-baseline records and exits 0; the next run is covered.
        assert main(
            ["lint", str(dirty), "--baseline", str(baseline), "--update-baseline"]
        ) == 0
        assert main(["lint", str(dirty), "--baseline", str(baseline)]) == 0
        # A new finding is not covered and fails.
        dirty.write_text(self.DIRTY + "\ndef t2(v):\n    return sum(x for x in set(v))\n")
        assert main(["lint", str(dirty), "--baseline", str(baseline)]) == 1
        capsys.readouterr()

    def test_update_baseline_requires_baseline(self, capsys):
        assert main(["lint", "--update-baseline"]) == 2
        capsys.readouterr()

    def test_bad_baseline_is_usage_error(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.CLEAN)
        bad = tmp_path / "base.json"
        bad.write_text("not json")
        assert main(["lint", str(dirty), "--baseline", str(bad)]) == 2
        capsys.readouterr()


class TestObservabilityCommands:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        # --manifest flips the process-global switch; leave no residue.
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        obs_trace.disable()
        obs_trace.reset()
        obs_metrics.reset()
        yield
        obs_trace.disable()
        obs_trace.reset()
        obs_metrics.reset()

    def _write_manifest(self, tmp_path):
        from repro.obs import manifest, metrics as obs_metrics, trace as obs_trace

        obs_trace.enable()
        with obs_trace.span("run_all", profile="smoke"):
            with obs_trace.span("job.alpha"):
                obs_metrics.inc("als.completions")
        payload = manifest.build_manifest(
            "run-all", config={"profile": "smoke"}, seed=0,
            jobs=manifest.jobs_from_spans(obs_trace.collector().snapshot()),
        )
        return manifest.write_manifest(payload, tmp_path / "m.json")

    def test_parser_accepts_manifest_flags(self):
        parser = build_parser()
        for argv in (
            ["experiments", "--manifest", "m.json"],
            ["bench", "--smoke", "--manifest", "m.json"],
            ["verify-determinism", "--smoke", "--manifest", "m.json"],
            ["trace", "summarize", "m.json", "--top", "5"],
            ["obs", "export", "m.json", "--what", "metrics",
             "--format", "prometheus"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_trace_summarize_round_trip(self, tmp_path, capsys):
        path = self._write_manifest(tmp_path)
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind=run-all" in out
        assert "per-phase rollup" in out
        assert "job.alpha" in out

    def test_trace_summarize_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_summarize_rejects_non_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"hello\": 1}")
        assert main(["trace", "summarize", str(bad)]) == 2
        capsys.readouterr()

    def test_obs_export_spans_jsonl(self, tmp_path, capsys):
        import json

        path = self._write_manifest(tmp_path)
        assert main(["obs", "export", str(path)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        parsed = [json.loads(ln) for ln in lines]
        assert {p["name"] for p in parsed} == {"run_all", "job.alpha"}

    def test_obs_export_metrics_prometheus(self, tmp_path, capsys):
        path = self._write_manifest(tmp_path)
        out_file = tmp_path / "metrics.prom"
        rc = main([
            "obs", "export", str(path), "--what", "metrics",
            "--format", "prometheus", "--output", str(out_file),
        ])
        assert rc == 0
        assert "als_completions 1" in out_file.read_text()
        capsys.readouterr()

    def test_obs_export_metrics_jsonl(self, tmp_path, capsys):
        import json

        path = self._write_manifest(tmp_path)
        assert main(["obs", "export", str(path), "--what", "metrics"]) == 0
        lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines() if ln]
        assert any(
            d["name"] == "als.completions" and d["kind"] == "counter"
            for d in lines
        )

    def test_obs_export_spans_prometheus_is_usage_error(self, tmp_path, capsys):
        path = self._write_manifest(tmp_path)
        rc = main([
            "obs", "export", str(path), "--what", "spans",
            "--format", "prometheus",
        ])
        assert rc == 2
        assert "only supports jsonl" in capsys.readouterr().err

    def test_verify_determinism_manifest_end_to_end(self, tmp_path, capsys):
        from repro.obs import manifest, schema

        out = tmp_path / "verify.json"
        rc = main([
            "verify-determinism", "--smoke", "--checks", "completion",
            "--max-workers", "2", "--manifest", str(out),
        ])
        assert rc == 0
        payload = manifest.load_manifest(out)
        schema.validate_manifest(payload)
        assert payload["kind"] == "verify-determinism"
        assert [j["name"] for j in payload["jobs"]] == ["completion"]
        assert payload["jobs"][0]["status"] == "ok"
        assert payload["spans"]  # observability was on for the run
        # And the stored manifest renders.
        assert main(["trace", "summarize", str(out)]) == 0
        capsys.readouterr()


class TestVerifyDeterminismCommand:
    def test_parser_accepts(self):
        parser = build_parser()
        args = parser.parse_args(
            ["verify-determinism", "--smoke", "--checks", "completion", "tuning"]
        )
        assert args.smoke and args.checks == ["completion", "tuning"]

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["verify-determinism", "--smoke", "--checks", "nope"]) == 2
        capsys.readouterr()

    def test_smoke_subset_passes(self, capsys):
        rc = main(
            [
                "verify-determinism",
                "--smoke",
                "--checks",
                "completion",
                "--max-workers",
                "2",
            ]
        )
        assert rc == 0
        assert "bit-identical" in capsys.readouterr().out
