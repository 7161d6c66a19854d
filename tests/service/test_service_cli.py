"""Tests for the ``python -m repro.service`` CLI verbs."""

import json

import pytest

from repro.service.cli import build_parser, main

FAST_FLAGS = ["--fast", "--profiles", "paper-qpsk-1ghz"]


class TestParser:
    def test_every_verb_is_registered(self):
        parser = build_parser()
        actions = next(
            action for action in parser._actions if action.dest == "command"
        )
        assert set(actions.choices) == {
            "serve", "run", "submit", "status", "result", "jobs", "drain",
            "compact", "gc",
        }

    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRun:
    def test_run_executes_and_writes_report(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        code = main(
            ["run", "--store", str(tmp_path / "store"), "--workers", "2",
             "--quiet", "--output", str(output), *FAST_FLAGS]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "campaign service:" in captured
        assert "service stats:" in captured
        payload = json.loads(output.read_text())
        assert payload["stats"]["scenarios_total"] == 1
        assert payload["summary"]["sections"]["service"]["num_workers"] == 2

    def test_run_from_a_spec_file(self, tmp_path, capsys):
        from repro.bist import BistConfig
        from repro.service import CampaignSpec

        spec = CampaignSpec(
            profiles=("paper-qpsk-1ghz",),
            bist_config=BistConfig(
                num_samples_fast=128,
                num_samples_slow=64,
                lms_max_iterations=25,
                num_cost_points=60,
                measure_evm_enabled=False,
            ),
        )
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        code = main(
            ["run", "--store", str(tmp_path / "store"), "--quiet",
             "--spec", str(spec_file)]
        )
        assert code == 0

    def test_second_run_is_warm(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", "--store", store, "--quiet", *FAST_FLAGS]) == 0
        capsys.readouterr()
        assert main(["run", "--store", store, "--quiet", *FAST_FLAGS]) == 0
        assert "warm-cache hit rate 100.0%" in capsys.readouterr().out

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        code = main(
            ["run", "--store", str(tmp_path / "store"), "--quiet",
             "--fast", "--profiles", "no-such-profile"]
        )
        assert code == 1

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(FileNotFoundError):
            main(["run", "--store", str(tmp_path / "store"), "--quiet",
                  "--spec", str(tmp_path / "missing.json")])


class TestLifecycleVerbs:
    def test_compact(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["run", "--store", str(store), "--quiet", *FAST_FLAGS]) == 0
        shards_before = list(store.glob("*.jsonl"))
        assert main(["compact", "--store", str(store)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert [path.name for path in store.glob("*.jsonl")] == ["campaign.jsonl"]
        assert shards_before  # the run really produced worker shards

    def test_gc_dry_run_and_output(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / "a.jsonl").write_text(
            json.dumps(
                {"fingerprint": "f", "schema_version": 1, "outcome": {"index": 0, "label": "x"}}
            )
            + "\n"
        )
        output = tmp_path / "gc.json"
        code = main(["gc", "--store", str(store), "--dry-run", "--output", str(output)])
        assert code == 0
        assert "would drop 1" in capsys.readouterr().out
        assert json.loads(output.read_text())["tombstoned"] == 1
        assert (store / "a.jsonl").exists()

    def test_gc_protect(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / "a.jsonl").write_text(
            json.dumps(
                {"fingerprint": "f", "schema_version": 1, "outcome": {"index": 0, "label": "x"}}
            )
            + "\n"
        )
        keep = tmp_path / "keep.json"
        keep.write_text(json.dumps(["f"]))
        assert main(["gc", "--store", str(store), "--protect", str(keep)]) == 0
        assert "kept 1 (1 protected)" in capsys.readouterr().out


class TestClientVerbs:
    @pytest.fixture()
    def endpoint(self, tmp_path):
        import asyncio
        import threading

        from repro.service.queue import JobQueue
        from repro.service.server import BistServiceServer

        ready = threading.Event()
        state = {}

        def run_server():
            async def inner():
                queue = JobQueue(tmp_path / "store", num_workers=1)
                server = BistServiceServer(queue, port=0)
                await server.start()
                state["port"] = server.port
                ready.set()
                await server.serve_forever()

            asyncio.run(inner())

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert ready.wait(10.0)
        yield f"http://127.0.0.1:{state['port']}"
        main(["drain", "--url", f"http://127.0.0.1:{state['port']}"])
        thread.join(timeout=60.0)

    def test_submit_wait_status_result_jobs(self, endpoint, tmp_path, capsys):
        code = main(
            ["submit", "--url", endpoint, "--wait", "--timeout-job", "120",
             *FAST_FLAGS]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "submitted job-000001" in out
        assert "job-000001: done" in out

        assert main(["status", "--url", endpoint, "job-000001"]) == 0
        assert '"state": "done"' in capsys.readouterr().out

        output = tmp_path / "result.json"
        assert main(
            ["result", "--url", endpoint, "job-000001", "--output", str(output)]
        ) == 0
        assert "campaign service:" in capsys.readouterr().out
        assert json.loads(output.read_text())["state"] == "done"

        assert main(["jobs", "--url", endpoint]) == 0
        assert "job-000001: done" in capsys.readouterr().out

    def test_unknown_job_exits_2(self, endpoint, capsys):
        assert main(["status", "--url", endpoint, "job-999999"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreachable_service_exits_2(self, capsys):
        assert main(["jobs", "--url", "http://127.0.0.1:1", "--timeout", "0.5"]) == 2
        assert "cannot reach" in capsys.readouterr().err
