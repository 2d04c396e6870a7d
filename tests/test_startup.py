"""Start-up cost: what a fresh ``python -m repro`` process imports.

``verify`` is the command users run most, and its sweep takes about a
millisecond at B=8, so its wall clock is interpreter start plus imports.
These tests pin the imports: the package front doors (``repro`` and
``repro.service``) resolve their exports lazily, and a serial ``verify``
loads none of the service, store, socket or process-pool machinery.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: Stdlib modules a serial ``verify`` must not import (unless the bare
#: interpreter already has them, e.g. through a site hook).
GUARDED_STDLIB = (
    "asyncio",
    "sqlite3",
    "multiprocessing",
    "ssl",
    "socket",
    "concurrent.futures",
    "uuid",
)
#: repro layers a serial ``verify`` must not import.
GUARDED_REPRO = (
    "repro.service.server",
    "repro.service.client",
    "repro.store",
    "repro.distributed",
    "repro.analysis",
)

_LIST_MODULES = "print('\\n'.join(sorted(sys.modules)))"


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": SRC_DIR},
        capture_output=True,
        text=True,
        timeout=300,
    )


def _loaded(module: str, modules) -> bool:
    return any(m == module or m.startswith(module + ".") for m in modules)


class TestImportGuard:
    def test_serial_verify_imports_only_what_it_runs(self):
        bare = _python("-c", "import sys\n" + _LIST_MODULES)
        assert bare.returncode == 0, bare.stderr
        bare_modules = set(bare.stdout.split())
        proc = _python(
            "-c",
            "import sys\n"
            "import repro.__main__\n"
            "assert repro.__main__.main(['verify', '--width', '8']) == 0\n"
            + _LIST_MODULES,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "2-sort(8) vs closure spec: 261121 cases checked: OK"
        modules = set(lines[1:])
        stray = [
            m for m in GUARDED_STDLIB
            if _loaded(m, modules) and not _loaded(m, bare_modules)
        ]
        stray += [m for m in GUARDED_REPRO if _loaded(m, modules)]
        assert stray == [], stray


class TestLazyFrontDoors:
    @pytest.mark.parametrize("package", ["repro", "repro.service"])
    def test_fresh_import_loads_no_submodule(self, package):
        proc = _python("-c", f"import sys\nimport {package}\n" + _LIST_MODULES)
        assert proc.returncode == 0, proc.stderr
        loaded = [m for m in proc.stdout.split() if m.startswith("repro")]
        assert sorted(loaded) == sorted({"repro", package})

    @pytest.mark.parametrize("package", ["repro", "repro.service"])
    def test_every_export_is_the_defining_modules_object(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            namespace = {}
            exec(f"from {package} import {name}", namespace)
            value = namespace[name]
            submodule = module._EXPORTS.get(name)
            if submodule is None:  # a plain attribute of the package
                assert value is vars(module)[name]
                continue
            defining = importlib.import_module(f"{package}.{submodule}")
            assert value is getattr(defining, name), name
            assert getattr(module, name) is value

    def test_service_constants_keep_their_server_path(self):
        from repro.service import DEFAULT_HOST, DEFAULT_PORT
        from repro.service import server

        assert (server.DEFAULT_HOST, server.DEFAULT_PORT) == (
            DEFAULT_HOST, DEFAULT_PORT
        ) == ("127.0.0.1", 7421)

    @pytest.mark.parametrize("package", ["repro", "repro.service"])
    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", ["repro", "repro.service"])
    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")


class TestFreshProcessCommands:
    """Commands that no in-process CLI test runs from a fresh process."""

    def test_table8_prints_the_in_process_rows(self):
        from repro.analysis.compare import table8_rows

        proc = _python("-m", "repro", "table8")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [row.format() for row in table8_rows()]

    @pytest.mark.parametrize("command", ["status", "cancel"])
    def test_job_commands_without_a_service_exit_2(self, command):
        proc = _python("-m", "repro", command, "j0", "--port", "1")
        assert proc.returncode == 2
        assert "error: service at" in proc.stderr
