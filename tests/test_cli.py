"""CLI smoke tests (python -m repro)."""

import json

import pytest

from repro.__main__ import main
from repro.obs.events import EVENT_KINDS
from repro.obs.perfetto import validate_trace


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "perlbench" in out and "GemsFDTD" in out

    def test_run(self, capsys):
        assert main(["run", "--core", "ino", "--app", "hmmer",
                     "-n", "2000", "--warmup", "500"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_compare(self, capsys):
        assert main(["compare", "--app", "hmmer",
                     "-n", "2000", "--warmup", "500"]) == 0
        out = capsys.readouterr().out
        assert "casino" in out and "speedup" in out
        # S2 + CPI-stack wiring: stall counters and the cycle stack ride
        # along in the comparison table.
        assert "CPI stack" in out and "iq_head_blocked" in out
        assert "stall counters (after warmup)" in out

    def test_compare_stalls_exclude_warmup(self, tmp_path):
        """The stall table counts the same post-warmup window as the IPC
        column: it equals a plain run's ``stall`` counters."""
        from repro.common.params import make_ino_config
        from repro.harness.runner import Runner
        from repro.workloads.suite import SUITE
        out = tmp_path / "cmp.json"
        assert main(["compare", "--app", "hmmer", "-n", "3000",
                     "--warmup", "1000", "--json", str(out)]) == 0
        stalls = json.loads(out.read_text())["cores"]["ino"]["stalls"]
        counters = Runner(n_instrs=3000, warmup=1000).run(
            make_ino_config(), SUITE["hmmer"]).stats.counters
        expected = {k: v for k, v in counters.items() if "stall" in k}
        assert expected and stalls == expected

    def test_characterize(self, capsys):
        assert main(["characterize", "--app", "h264ref", "-n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "frac_loads" in out and "alias_pairs" in out

    def test_bad_core_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--core", "pentium4"])

    def test_bad_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStructuredErrors:
    """S2: failed simulations exit non-zero with SimulationError.details
    rendered to stderr — never a raw traceback."""

    def test_run_deadlock_exits_3_with_details(self, capsys, tmp_path):
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({"base": "casino", "deadlock_cycles": 2}))
        assert main(["run", "--config", str(cfg), "--app", "mcf",
                     "-n", "2000", "--warmup", "500"]) == 3
        err = capsys.readouterr().err
        assert "simulation failed" in err
        assert "check: deadlock_watchdog" in err
        assert "cycle:" in err
        assert "Traceback" not in err

    def test_compare_simulation_error_exits_3(self, capsys, monkeypatch):
        from repro.engine.core_base import SimulationError
        from repro.harness.runner import Runner

        def boom(self, cfg, profile):
            raise SimulationError("injected failure", core=cfg.name,
                                  check="cycle_budget", cycle=123)

        monkeypatch.setattr(Runner, "run", boom)
        assert main(["compare", "--app", "hmmer",
                     "-n", "2000", "--warmup", "500"]) == 3
        err = capsys.readouterr().err
        assert "injected failure" in err
        assert "check: cycle_budget" in err


class TestSubmitCommand:
    def test_bad_batch_entry_exits_2(self, capsys):
        assert main(["submit", "--batch", "ino:hmmer,garbage"]) == 2
        err = capsys.readouterr().err
        assert "bad --batch entry" in err and "garbage" in err

    def test_unreachable_service_exits_4(self, capsys):
        # Port 9 (discard) is never a simulation service.
        assert main(["submit", "--url", "http://127.0.0.1:9",
                     "--core", "ino", "--app", "hmmer"]) == 4
        assert "error:" in capsys.readouterr().err


class TestJsonExport:
    def test_run_json(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        assert main(["run", "--core", "ino", "--app", "hmmer",
                     "-n", "2000", "--warmup", "500",
                     "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["core"] == "ino" and doc["app"] == "hmmer"
        assert doc["ipc"] > 0
        assert "committed" in doc["counters"]
        assert doc["manifest"]["config_hash"]

    def test_compare_json(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.json"
        assert main(["compare", "--app", "hmmer",
                     "-n", "2000", "--warmup", "500",
                     "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["baseline"] == "ino"
        assert {"ino", "ooo", "casino"} <= set(doc["cores"])
        assert doc["cores"]["casino"]["speedup"] > 0


class TestTraceCommand:
    def test_trace_smoke(self, capsys):
        assert main(["trace", "--core", "casino", "--app", "mcf",
                     "-n", "2000", "--warmup", "500"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "dispatch" in out and "commit" in out

    def test_trace_exports(self, capsys, tmp_path):
        perfetto = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["trace", "--core", "ooo", "--app", "milc",
                     "-n", "2000", "--warmup", "500",
                     "--perfetto", str(perfetto),
                     "--metrics", str(metrics)]) == 0
        doc = json.loads(perfetto.read_text())
        assert validate_trace(doc) == []
        assert doc["traceEvents"]
        report = json.loads(metrics.read_text())
        assert report["samples"]

    def test_trace_profile(self, capsys):
        assert main(["trace", "--core", "ino", "--app", "hmmer",
                     "-n", "2000", "--warmup", "500", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "self-profile" in out and "components cover" in out

    def test_trace_kind_filter(self, capsys):
        assert main(["trace", "--core", "ino", "--app", "hmmer",
                     "-n", "2000", "--warmup", "500",
                     "--kinds", "commit"]) == 0
        out = capsys.readouterr().out
        assert "commit" in out and "dispatch" not in out

    def test_trace_unknown_kind_rejected(self, capsys):
        # S1: a typo'd kind is a friendly error listing the valid kinds,
        # not a traceback.
        assert main(["trace", "--core", "ino", "--app", "hmmer",
                     "-n", "2000", "--warmup", "500",
                     "--kinds", "commit,frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "frobnicate" in err
        for kind in EVENT_KINDS:
            assert kind in err


class TestExplainCommand:
    def test_explain_smoke(self, capsys):
        assert main(["explain", "mcf", "--core", "casino",
                     "-n", "2000", "--warmup", "500"]) == 0
        out = capsys.readouterr().out
        assert "CPI stack" in out
        assert "critical path" in out and "edge type" in out
        assert "slack" in out

    def test_explain_vs_diffs_schedules(self, capsys):
        assert main(["explain", "mcf", "--core", "casino", "--vs", "ooo",
                     "-n", "2000", "--warmup", "500", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "schedule diff: casino vs ooo" in out
        assert "fell behind" in out and "caught up" in out
        assert "pc=0x" in out

    def test_explain_vs_self_rejected(self, capsys):
        assert main(["explain", "mcf", "--core", "ooo", "--vs", "ooo",
                     "-n", "2000", "--warmup", "500"]) == 2
        assert "differ" in capsys.readouterr().err

    def test_explain_exports(self, capsys, tmp_path):
        out_json = tmp_path / "explain.json"
        out_csv = tmp_path / "explain.csv"
        assert main(["explain", "hmmer", "--core", "ino", "--vs", "ooo",
                     "-n", "2000", "--warmup", "500",
                     "--json", str(out_json), "--csv", str(out_csv)]) == 0
        doc = json.loads(out_json.read_text())
        assert set(doc["cores"]) == {"ino", "ooo"}
        for core in doc["cores"].values():
            stack = core["accounting"]["components"]
            assert sum(stack.values()) == core["accounting"]["total_cycles"]
            cp = core["critical_path"]
            assert sum(cp["breakdown"].values()) == cp["length"]
        assert doc["diff"]["instructions"] > 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("core,component")
        # one row per (core, component)
        assert len(lines) == 1 + 2 * 7
