"""Tests for the command-line interface (python -m repro)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


class TestCli:
    def test_verify_ok(self, capsys):
        assert main(["verify", "--width", "2"]) == 0
        out = capsys.readouterr().out
        assert "49 cases checked: OK" in out

    def test_verify_wide_width_now_feasible(self, capsys):
        """B=8 (261k pairs) is interactive since the bit-parallel engine."""
        assert main(["verify", "--width", "8"]) == 0
        assert "261121 cases checked: OK" in capsys.readouterr().out

    def test_verify_imports_no_numpy(self):
        """A fresh ``verify`` process loads no numpy: every registered
        plane backend is stdlib-only, so no ``repro`` process pays for
        importing it."""
        code = (
            "import sys\n"
            "import repro.__main__\n"
            "assert repro.__main__.main(['verify', '--width', '8']) == 0\n"
            "assert 'numpy' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "261121 cases checked: OK" in proc.stdout

    def test_verify_refuses_huge_width(self, capsys):
        assert main(["verify", "--width", "14"]) == 2

    @pytest.mark.parametrize("width", ["0", "-2"])
    def test_verify_refuses_non_positive_width(self, width, capsys):
        """Widths below 1 exit 2 with a message, not a traceback."""
        assert main(["verify", "--width", width]) == 2
        assert "width must be in 1..13" in capsys.readouterr().err

    def test_verify_width_13_passes_the_cap(self, monkeypatch, capsys):
        """The cap moved from B<=11 to B<=13: width 13 must reach the
        verification path (stubbed -- the full 268M-pair run is far too
        slow for a unit test).  The CLI is a thin client of
        VerifyRequest now, so the stub lives at the request's seam."""
        import repro.service.jobs as jobs
        from repro.verify.exhaustive import VerificationResult

        seen = {}

        def fake_verify(circuit, width, **kwargs):
            seen["width"] = width
            return VerificationResult(checked=1)

        monkeypatch.setattr(jobs, "verify_two_sort_sharded", fake_verify)
        monkeypatch.setattr(jobs, "build_two_sort", lambda width: None)
        assert main(["verify", "--width", "13"]) == 0
        assert seen["width"] == 13
        assert "1 cases checked: OK" in capsys.readouterr().out

    def test_verify_jobs_match_serial(self, capsys):
        """--jobs N produces identical counts to the serial sweep."""
        outputs = []
        for jobs in ("1", "2", "4"):
            assert main(["verify", "--width", "5", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert all("3969 cases checked: OK" in out for out in outputs)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_verify_shard_size_flag(self, capsys):
        assert main(
            ["verify", "--width", "4", "--jobs", "2", "--shard-size", "64"]
        ) == 0
        assert "961 cases checked: OK" in capsys.readouterr().out

    def test_verify_rejects_negative_jobs(self, capsys):
        assert main(["verify", "--width", "4", "--jobs", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--jobs must be >= 0" in err and "-1" in err

    @pytest.mark.parametrize("size", ["0", "-7"])
    def test_verify_rejects_non_positive_shard_size(self, size, capsys):
        assert main(["verify", "--width", "4", "--shard-size", size]) == 2
        err = capsys.readouterr().err
        assert "--shard-size must be a positive" in err

    def test_verify_validation_happens_before_work(self, monkeypatch, capsys):
        """Bad arguments must not reach the verification layer at all."""
        import repro.service.jobs as jobs

        def boom(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("verification ran despite bad args")

        monkeypatch.setattr(jobs, "verify_two_sort_sharded", boom)
        assert main(["verify", "--width", "4", "--jobs", "-3"]) == 2

    def test_verify_backend_flag_bit_identical(self, capsys):
        """--backend native and --backend bigint: same summary, jobs 1+2
        (the acceptance contract)."""
        outputs = []
        for backend in ("bigint", "native"):
            for jobs in ("1", "2"):
                assert main(
                    ["verify", "--width", "5", "--jobs", jobs,
                     "--backend", backend]
                ) == 0
                outputs.append(capsys.readouterr().out)
        assert all("3969 cases checked: OK" in out for out in outputs)
        assert len(set(outputs)) == 1

    def test_verify_rejects_unknown_backend(self, capsys):
        """Unknown backends exit 2 with the registered names listed
        (argparse choices= would hide names registered at runtime)."""
        assert main(["verify", "--width", "4", "--backend", "gpu"]) == 2
        err = capsys.readouterr().err
        assert "unknown plane backend 'gpu'" in err
        for name in ("auto", "bigint", "native"):
            assert name in err

    def test_sort_rejects_unknown_backend(self, capsys):
        """A sort names no plane backend, so ``sort`` has no
        ``--backend`` flag: any value is a usage error (exit 2)."""
        with pytest.raises(SystemExit) as exc:
            main(["sort", "01", "00", "--engine", "compiled",
                  "--backend", "gpu"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_verify_backend_native_and_auto_match_bigint(self, capsys):
        """--backend native and the auto default resolve to *some*
        registered backend and produce the bigint report verbatim
        (on compiler-less hosts native falls back; output is identical
        either way)."""
        outputs = []
        for backend in ("bigint", "native", "auto"):
            assert main(
                ["verify", "--width", "4", "--backend", backend]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert "961 cases checked: OK" in outputs[0]
        assert len(set(outputs)) == 1

    def test_backends_command_lists_registry(self, capsys):
        import json as jsonlib

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("bigint", "native", "auto"):
            assert name in out
        assert "(default)" in out

        assert main(["backends", "--json"]) == 0
        data = jsonlib.loads(capsys.readouterr().out)
        names = {row["name"] for row in data["backends"]}
        assert {"bigint", "native"} <= names
        assert data["auto"] in names
        assert data["default"] == "bigint"

    def test_verify_executor_flag_reaches_registry(self, capsys):
        """--executor finally exposes the registry: serial stays serial
        even with --jobs > 1 (which used to hard-imply process)."""
        outputs = []
        for executor in ("serial", "process"):
            assert main(
                ["verify", "--width", "5", "--jobs", "2",
                 "--executor", executor]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert all("3969 cases checked: OK" in out for out in outputs)
        assert len(set(outputs)) == 1

    def test_verify_rejects_unknown_executor(self, capsys):
        assert main(["verify", "--width", "4", "--executor", "quantum"]) == 2
        err = capsys.readouterr().err
        assert "unknown executor 'quantum'" in err
        assert "serial" in err and "distributed" in err

    def test_verify_executor_validated_before_work(self, monkeypatch, capsys):
        import repro.service.jobs as jobs

        def boom(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("verification ran despite bad executor")

        monkeypatch.setattr(jobs, "verify_two_sort_sharded", boom)
        assert main(["verify", "--width", "4", "--executor", "nope"]) == 2

    def test_verify_distributed_requires_listen(self, capsys):
        assert main(
            ["verify", "--width", "4", "--executor", "distributed"]
        ) == 2
        assert "--listen" in capsys.readouterr().err

    def test_verify_listen_requires_distributed(self, capsys):
        assert main(["verify", "--width", "4", "--listen", "7433"]) == 2
        assert "--executor distributed" in capsys.readouterr().err

    def test_verify_listen_malformed_address(self, capsys):
        assert main(
            ["verify", "--width", "4", "--executor", "distributed",
             "--listen", "nonsense"]
        ) == 2
        assert "PORT or HOST:PORT" in capsys.readouterr().err

    def test_verify_listen_busy_port_exits_2(self, capsys):
        """A bind failure is a usage error (exit 2 + one line), not a
        traceback -- same convention as serve's service port."""
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            assert main(
                ["verify", "--width", "4", "--executor", "distributed",
                 "--listen", f"127.0.0.1:{port}"]
            ) == 2
            assert "cannot start coordinator" in capsys.readouterr().err
        finally:
            blocker.close()
            from repro.distributed import shutdown_coordinator

            shutdown_coordinator()

    @staticmethod
    def _usage_error(argv, capsys):
        """``main(argv)`` must stop in argparse (exit 2), print nothing
        on stdout, and return the stderr it printed."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_sort_rejects_unknown_executor(self, capsys):
        """A batch sort runs in this process: ``sort`` takes no
        ``--executor``, so any name is a usage error."""
        err = self._usage_error(
            ["sort", "01", "00", "--executor", "quantum"], capsys
        )
        assert "unrecognized arguments: --executor" in err

    def test_sort_rejects_distributed_executor(self, capsys):
        """Neither ``sort`` nor ``submit sort`` can send a sort to
        workers; both refuse the flag before connecting anywhere."""
        for argv in (
            ["sort", "01", "00", "--executor", "distributed"],
            ["submit", "sort", "01", "00", "--executor", "distributed",
             "--port", "1"],
        ):
            err = self._usage_error(argv, capsys)
            assert "unrecognized arguments: --executor" in err

    def test_sort_executor_flag(self, capsys):
        err = self._usage_error(
            ["sort", "0110", "0M10", "0010", "--engine", "compiled",
             "--executor", "serial"],
            capsys,
        )
        assert "unrecognized arguments: --executor serial" in err

    def test_worker_rejects_malformed_connect(self, capsys):
        assert main(["worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_connection_refused_exits_2(self, capsys):
        # --retry-max 0 keeps this a fail-fast test; the default budget
        # retries with backoff for over a minute (see
        # test_fault_tolerance for the retry/backoff behaviour itself).
        assert main(
            ["worker", "--connect", "127.0.0.1:1", "--retry-max", "0"]
        ) == 2
        err = capsys.readouterr().err
        assert "coordinator at 127.0.0.1:1" in err
        assert "connect attempt" in err

    def test_worker_rejects_negative_retry_max(self, capsys):
        assert main(
            ["worker", "--connect", "127.0.0.1:1", "--retry-max", "-1"]
        ) == 2
        assert "--retry-max" in capsys.readouterr().err

    def test_worker_rejects_nonpositive_backoff(self, capsys):
        assert main(
            ["worker", "--connect", "127.0.0.1:1", "--backoff-base", "0"]
        ) == 2
        assert "--backoff-base" in capsys.readouterr().err

    @pytest.mark.parametrize("base", ["inf", "nan"])
    def test_worker_rejects_nonfinite_backoff_before_dialing(
        self, base, capsys
    ):
        """inf died with an OverflowError traceback in the first
        backoff sleep, and nan slipped past the ``<= 0`` check."""
        assert main(
            ["worker", "--connect", "127.0.0.1:1", "--backoff-base", base,
             "--retry-max", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert "--backoff-base" in err
        assert "connect attempt" not in err

    @pytest.mark.parametrize("throttle", ["-1", "nan", "inf"])
    def test_worker_rejects_bad_throttle_before_dialing(
        self, throttle, capsys
    ):
        """A sleep that raises after every shard made the agent redial
        and re-lease the same range forever; refuse it up front."""
        assert main(
            ["worker", "--connect", "127.0.0.1:1", "--throttle", throttle,
             "--retry-max", "0"]
        ) == 2
        err = capsys.readouterr().err
        assert "--throttle" in err
        assert "connect attempt" not in err

    def test_worker_rejects_out_of_range_port_before_dialing(self, capsys):
        """Port 70000 used to dial port 4464 (70000 - 65536)."""
        assert main(
            ["worker", "--connect", "127.0.0.1:70000", "--retry-max", "0"]
        ) == 2
        err = capsys.readouterr().err
        assert "--connect expects HOST:PORT" in err
        assert "connect attempt" not in err

    def test_worker_has_no_jobs_flag(self, capsys):
        """A host contributes N cores by running N workers."""
        with pytest.raises(SystemExit) as exc:
            main(["worker", "--connect", "127.0.0.1:1", "--jobs", "2",
                  "--retry-max", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--port", "70000"],
            ["serve", "--port", "-1"],
            ["status", "j1", "--port", "70000"],
            ["cancel", "j1", "--port", "70000"],
            ["submit", "sort", "01", "--port", "70000"],
        ],
    )
    def test_out_of_range_port_is_a_usage_error(self, argv, capsys):
        """The socket layer raised OverflowError (a traceback, exit 1)."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --port expects a port 0-65535")
        assert err.count("\n") == 1

    def test_verify_resume_requires_existing_journal(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["verify", "--width", "4", "--resume", missing]) == 2
        assert "no such checkpoint journal" in capsys.readouterr().err

    def test_verify_resume_checkpoint_conflict(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        assert main(
            ["verify", "--width", "4", "--resume", a, "--checkpoint", b]
        ) == 2
        assert "different journals" in capsys.readouterr().err

    def test_verify_checkpoint_roundtrip(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        assert main(
            ["verify", "--width", "4", "--checkpoint", journal]
        ) == 0
        first = capsys.readouterr()
        assert "OK" in first.out
        # Second run resumes: same report, and the resume banner counts
        # the journaled shards.
        assert main(["verify", "--width", "4", "--resume", journal]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "shard result(s) on file" in second.err

    def test_verify_store_keys_do_not_follow_jobs(self, tmp_path, capsys):
        """The ranges a sweep keys its store on do not depend on --jobs:
        a warm store answers a re-run with another job count in full."""
        store = f"sqlite:{tmp_path / 's.db'}"
        assert main(["verify", "-B", "8", "--store", store]) == 0
        cold = capsys.readouterr()
        assert main(
            ["verify", "-B", "8", "--store", store, "--jobs", "2"]
        ) == 0
        warm = capsys.readouterr()
        assert "0 miss(es), 0 new result(s)" in warm.err
        assert warm.out == cold.out

    def test_verify_resume_with_other_jobs_reruns_nothing(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "j.jsonl"

        def results():
            records = [json.loads(line) for line in journal.open()]
            return sum(r.get("type") == "result" for r in records)

        assert main(["verify", "-B", "8", "--checkpoint", str(journal)]) == 0
        first = capsys.readouterr()
        on_file = results()
        assert main(
            ["verify", "-B", "8", "--resume", str(journal), "--jobs", "2",
             "--executor", "serial"]
        ) == 0
        second = capsys.readouterr()
        assert results() == on_file
        assert second.out == first.out

    def test_sort_command(self, capsys):
        assert main(["sort", "0110", "0M10", "0010", "1000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0010", "0M10", "0110", "1000"]

    @pytest.mark.parametrize("engine", ["closure", "rank", "circuit", "compiled"])
    def test_sort_engine_flag(self, engine, capsys):
        """Every registered engine is reachable from the CLI and sorts
        identically (the compiled batch path was unreachable before)."""
        assert main(
            ["sort", "0110", "0M10", "0010", "1000", "--engine", engine]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0010", "0M10", "0110", "1000"]

    def test_sort_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["sort", "01", "00", "--engine", "warp"])

    def test_sort_rejects_mixed_widths(self, capsys):
        assert main(["sort", "01", "011"]) == 2

    @pytest.mark.parametrize(
        "engine", ["fsm", "closure", "rank", "circuit", "compiled"]
    )
    def test_sort_rejects_zero_width_words(self, engine, capsys):
        """Empty words exit 2 with the request validator's message under
        every engine, instead of printing blank lines (or failing deep
        in ``build_two_sort``)."""
        assert main(["sort", "", "", "--engine", engine]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one bit" in captured.err

    def test_submit_sort_rejects_zero_width_before_connecting(self, capsys):
        # Port 1 has no server: exit 2 means nothing tried to connect.
        assert main(["submit", "sort", "", "", "--port", "1"]) == 2
        assert "at least one bit" in capsys.readouterr().err

    def test_sort_rejects_invalid_strings(self, capsys):
        """A word outside S^B_rg is a usage error like a bad character:
        exit 2 and one line naming it, not a traceback."""
        for bad in ("MM", "0M1M"):
            assert main(["sort", bad, "0" * len(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"Word({bad!r}) is not a valid string"
            ]

    def test_export(self, capsys):
        assert main(["export", "--width", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("// generated")
        assert "endmodule" in out

    def test_table7(self, capsys):
        assert main(["table7"]) == 0
        out = capsys.readouterr().out
        assert "this-paper 2-sort(16)" in out
        assert "407" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestStoreSpecErrors:
    """A ``--store`` that cannot be opened is a usage error: exit 2 and
    one ``error: store SPEC -- REASON`` line on stderr, before any sweep
    or bind.  Exit 1 stays reserved for a failing circuit."""

    SPECS = [
        "journal:", "sqlite:", "/nonexistent/dir/x.db", "memory:x",
        "journal:{dir}",
    ]

    @staticmethod
    def _check(capsys, spec, code):
        out, err = capsys.readouterr()
        assert code == 2 and out == "", out
        assert err.startswith(f"error: store {spec} -- "), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("spec", SPECS)
    def test_verify(self, spec, tmp_path, monkeypatch, capsys):
        import repro.service.jobs as jobs

        def boom(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("verification ran despite a bad store")

        monkeypatch.setattr(jobs, "verify_two_sort_sharded", boom)
        spec = spec.format(dir=tmp_path)
        self._check(capsys, spec, main(["verify", "-B", "2", "--store", spec]))

    @pytest.mark.parametrize("spec", SPECS)
    def test_store_log(self, spec, tmp_path, capsys):
        spec = spec.format(dir=tmp_path)
        self._check(capsys, spec, main(["store", "log", "--store", spec]))

    @pytest.mark.parametrize("spec", SPECS)
    def test_serve(self, spec, tmp_path, monkeypatch, capsys):
        import asyncio

        def no_bind(coro):  # pragma: no cover - must not run
            coro.close()
            raise AssertionError("serve started despite a bad store")

        monkeypatch.setattr(asyncio, "run", no_bind)
        spec = spec.format(dir=tmp_path)
        self._check(
            capsys, spec, main(["serve", "--port", "0", "--store", spec])
        )


class TestCliJson:
    """--json: machine-readable output so scripts stop parsing summary()."""

    def test_verify_json_ok(self, capsys):
        import json

        assert main(["verify", "--width", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked"] == 961
        assert payload["ok"] is True
        assert payload["failure_count"] == 0
        assert payload["failures"] == []
        assert payload["truncated"] is False
        assert payload["elapsed_s"] >= 0

    def test_verify_json_matches_text_counts(self, capsys):
        import json

        assert main(["verify", "--width", "5", "--json", "--jobs", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked"] == 3969 and payload["ok"]

    def test_verify_json_reports_failures_and_truncation(
        self, monkeypatch, capsys
    ):
        import json

        import repro.service.jobs as jobs
        from repro.verify.exhaustive import VerificationResult

        def fake_verify(circuit, width, **kwargs):
            r = VerificationResult()
            r.checked = 50
            for i in range(25):
                r.record(f"boom {i}")
            return r

        monkeypatch.setattr(jobs, "verify_two_sort_sharded", fake_verify)
        monkeypatch.setattr(jobs, "build_two_sort", lambda width: None)
        assert main(["verify", "--width", "4", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failure_count"] == 25
        assert len(payload["failures"]) == 20
        assert payload["truncated"] is True
        assert payload["ok"] is False

    def test_sort_json(self, capsys):
        import json

        assert main(["sort", "0110", "0M10", "0010", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == ["0010", "0M10", "0110"]
