"""Config presets, transforms, and CLI plumbing."""

import dataclasses

import pytest

from repro.cli import _vs_baseline, build_parser, main as cli_main
from repro.config import PRESETS, ampere, huge_l1, volta
from repro.config.gpu_config import GPUConfig


class TestPresets:
    def test_volta_defaults(self):
        cfg = volta()
        assert cfg.num_sms >= 2  # the dynamic policy needs >= 2 SMs
        assert cfg.l1.size_bytes < cfg.registers_per_sm * 128  # regs matter
        assert cfg.warp_limit is None
        assert not cfg.l1_force_hit
        assert not cfg.unlimited_occupancy

    def test_ampere_differs_in_occupancy_tradeoff(self):
        v, a = volta(), ampere()
        assert a.num_sms > v.num_sms
        assert a.registers_per_sm / a.max_warps_per_sm > 0
        # Fewer register slots per warp slot than Volta: the shift behind
        # Fig 18's MST watermark flip.
        assert (a.registers_per_sm / a.max_warps_per_sm
                > v.registers_per_sm / v.max_warps_per_sm)

    def test_presets_registry(self):
        assert set(PRESETS) == {"volta", "ampere"}

    def test_huge_l1(self):
        assert huge_l1().l1.size_bytes == 2 * 1024 * 1024
        assert huge_l1(ampere()).num_sms == ampere().num_sms


class TestTransforms:
    def test_with_l1_size_only_changes_l1(self):
        cfg = volta().with_l1_size(64 * 1024)
        assert cfg.l1.size_bytes == 64 * 1024
        assert cfg.l1.assoc == volta().l1.assoc
        assert cfg.l2 == volta().l2
        assert cfg.name != volta().name  # distinct cache key

    def test_with_ports(self):
        cfg = volta().with_l1_ports(16)
        assert cfg.l1.ports == 16

    def test_with_warp_limit(self):
        assert volta().with_warp_limit(3).warp_limit == 3

    def test_with_force_hit(self):
        assert volta().with_force_hit().l1_force_hit

    def test_with_unlimited_occupancy(self):
        assert volta().with_unlimited_occupancy().unlimited_occupancy

    def test_configs_are_frozen(self):
        with pytest.raises(Exception):
            volta().num_sms = 2

    def test_cache_geometry(self):
        cfg = volta().l1
        assert cfg.num_sectors == cfg.size_bytes // 32
        assert cfg.num_sets * cfg.assoc <= cfg.num_sectors


class TestSerialization:
    def test_dict_round_trip(self):
        for preset in (volta(), ampere(), volta().with_l1_ports(16)):
            assert GPUConfig.from_dict(preset.to_dict()) == preset

    def test_fingerprint_stable_and_distinct(self):
        assert volta().fingerprint() == volta().fingerprint()
        assert volta().fingerprint() != ampere().fingerprint()
        assert volta().fingerprint() != volta().with_force_hit().fingerprint()

    def test_backend_is_not_part_of_the_simulated_machine(self):
        # There is one timing core, so no config field names one and a
        # serialized config never carries one.
        assert "backend" not in {f.name for f in dataclasses.fields(GPUConfig)}
        assert "backend" not in volta().to_dict()


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--workload", "SSSP"])
        assert args.technique == "cars"
        assert args.config == "volta"

    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "PTA" in out and "techniques" in out

    def test_analyze_command(self, capsys):
        assert cli_main(["analyze", "--workload", "SSSP"]) == 0
        out = capsys.readouterr().out
        assert "low=" in out and "high=" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--workload", "NOPE"])

    def test_cache_info_command(self, capsys, tmp_path):
        assert cli_main(["cache", "info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries : 0" in out and str(tmp_path) in out

    def test_cache_clear_command(self, capsys, tmp_path):
        (tmp_path / "deadbeef.json").write_text("{}")
        assert cli_main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.json"))

    def test_regen_command(self, capsys, tmp_path, monkeypatch):
        """``repro regen`` writes what ``generate_markdown`` renders, on an
        executor its options configure, to ``EXPERIMENTS.md`` by default."""
        from repro.harness import _regenerate, experiments

        # Restore the session's shared executor once the test is done.
        monkeypatch.setattr(experiments, "_EXECUTOR", None)
        seen = []

        def fake_markdown():
            executor = experiments.get_executor()
            seen.append((executor.jobs, executor.progress))
            return f"# stub {len(seen)}\n"

        monkeypatch.setattr(_regenerate, "generate_markdown", fake_markdown)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["regen", "--jobs", "2", "--quiet"]) == 0
        assert (tmp_path / "EXPERIMENTS.md").read_text() == "# stub 1\n"
        out = capsys.readouterr().out
        assert "wrote EXPERIMENTS.md in " in out
        assert "executor: simulated 0 runs, 0 store hits" in out

        assert cli_main(["regen", "other.md"]) == 0
        assert (tmp_path / "other.md").read_text() == "# stub 2\n"
        assert seen == [(2, None), (1, _regenerate._progress)]

    def test_bench_gate_reads_entry_calibration_and_counts(self):
        """``repro bench --check`` normalizes by the calibration an entry
        recorded and fails on count drift as well as on slow rates."""
        baseline = {
            "calibration_sec": 0.3,
            "workloads": {"FIB/trace": {"warp_instructions": 100,
                                        "calibration_sec": 0.4,
                                        "after_wips": 1000}},
        }
        failures = []
        # Same host speed as the entry's session (0.4 s spin): x1.00.
        assert _vs_baseline(baseline, "FIB/trace", "warp_instructions", 100,
                            "after_wips", 1000.0, 0.4, 0.2, failures) == (
            "  vs baseline x1.00")
        assert failures == []
        assert _vs_baseline(baseline, "FIB/new", "warp_instructions", 1,
                            "after_wips", 1.0, 0.4, 0.2, failures) == ""
        _vs_baseline(baseline, "FIB/trace", "warp_instructions", 101,
                     "after_wips", 700.0, 0.4, 0.2, failures)
        assert len(failures) == 2
        assert "101 warp_instructions" in failures[0]
        assert "x0.70" in failures[1]
