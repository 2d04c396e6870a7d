"""Build-on-first-use loader for the native plane kernel.

The kernel is a single C file (``kernel.c``) compiled to a shared library
with whatever C compiler the host has, then loaded through :mod:`ctypes`
(no third-party build dependency).  Builds are cached per host under
``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro/native``) in a file
keyed on the SHA-256 of the kernel source, the compiler identity, and the
flags, so upgrading the source or switching compilers rebuilds while
repeat imports just ``dlopen`` the cached artifact.

Everything degrades gracefully: no compiler, a failed build, a bad cached
artifact, or ``REPRO_NO_NATIVE=1`` all make :func:`load_kernel` return
``None``, and the native backend falls back to bigint planes with a
one-time stderr notice.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

_KERNEL_ABI = 4
_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "kernel.c")
_CFLAGS = ["-O3", "-shared", "-fPIC", "-std=c99"]

_load_attempted = False
_loaded_kernel = None
_load_error: str | None = None
_notice_emitted = False


def native_disabled_by_env() -> bool:
    return os.environ.get("REPRO_NO_NATIVE", "") not in ("", "0")


def _find_compiler() -> str | None:
    # An explicit $CC wins exclusively: if it is set but broken the build
    # fails and the backend falls back, which is how CI's no-compiler job
    # poisons the toolchain without uninstalling gcc.
    cc = os.environ.get("CC")
    if cc is not None:
        return cc if shutil.which(cc) else None
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _compiler_id(cc: str) -> str:
    try:
        out = subprocess.run(
            [cc, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        ).stdout
        first = out.splitlines()[0] if out else ""
    except (OSError, subprocess.SubprocessError):
        first = ""
    return f"{cc} {first}".strip()


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")


def _build(cc: str, source: str, out_path: str) -> None:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        suffix=".so", dir=os.path.dirname(out_path), prefix=".build-"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, _SOURCE_PATH],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip().splitlines()
            raise RuntimeError(
                f"{cc} exited {proc.returncode}"
                + (f": {detail[-1]}" if detail else "")
            )
        os.replace(tmp, out_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    # All pointer parameters are declared c_void_p so callers can pass raw
    # integer addresses (an array("Q")'s buffer_info()[0])
    # without building ctypes pointer objects -- that per-call marshalling
    # is measurable on the hot verification path.  c_void_p also accepts
    # ctypes arrays directly, so cached int32 slot/program arrays pass as-is.
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    u64 = ctypes.c_uint64
    lib.repro_kernel_abi.argtypes = []
    lib.repro_kernel_abi.restype = ctypes.c_int32
    lib.repro_run_program.argtypes = [ptr, i64, ptr, ptr, i64]
    lib.repro_run_program.restype = None
    lib.repro_popcount.argtypes = [ptr, i64]
    lib.repro_popcount.restype = i64
    lib.repro_extract_lanes.argtypes = [ptr, i64, ptr, i64]
    lib.repro_extract_lanes.restype = i64
    lib.repro_bitwise.argtypes = [ctypes.c_int32, ptr, ptr, ptr, i64]
    lib.repro_bitwise.restype = None
    lib.repro_not_masked.argtypes = [ptr, ptr, i64, u64]
    lib.repro_not_masked.restype = None
    lib.repro_tile_words.argtypes = []
    lib.repro_tile_words.restype = i64
    lib.repro_pair_shard.argtypes = [
        ptr, i64,            # prog
        ptr, i64,            # [slot, a_slot, b_slot] compare triples
        ptr, i64,            # [slot, p0_ones, p1_ones] preset rows
        ptr,                 # input slots: g bits then h bits
        ptr, ptr,            # m0 / m1 string-mask rows
        i64, i64,            # width, words per mask row
        i64, i64,            # g_lo, g_hi
        ptr, i64,            # scratch, n_slots
        ptr,                 # diff
        ptr,                 # per-output mismatch counts, or NULL
    ]
    lib.repro_pair_shard.restype = i64
    return lib


def _load_uncached() -> tuple[ctypes.CDLL | None, str | None]:
    if native_disabled_by_env():
        return None, "REPRO_NO_NATIVE is set"
    try:
        with open(_SOURCE_PATH, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    cc = _find_compiler()
    if cc is None:
        return None, "no C compiler found (checked $CC, cc, gcc, clang)"
    key = hashlib.sha256(
        "\x00".join([source, _compiler_id(cc), " ".join(_CFLAGS)]).encode()
    ).hexdigest()[:16]
    try:
        cache_dir = _cache_dir()
        so_path = os.path.join(cache_dir, f"repro_kernel_{key}.so")
        if not os.path.exists(so_path):
            _build(cc, source, so_path)
        lib = _bind(ctypes.CDLL(so_path))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        # A stale or foreign cache dir shouldn't kill the backend: retry
        # once in a throwaway location before giving up.
        try:
            tmp_dir = tempfile.mkdtemp(prefix="repro-native-")
            so_path = os.path.join(tmp_dir, f"repro_kernel_{key}.so")
            _build(cc, source, so_path)
            lib = _bind(ctypes.CDLL(so_path))
        except (OSError, RuntimeError, subprocess.SubprocessError):
            return None, f"kernel build failed with {cc}: {exc}"
    if lib.repro_kernel_abi() != _KERNEL_ABI:
        return None, (
            f"cached kernel ABI {lib.repro_kernel_abi()} != expected {_KERNEL_ABI}"
        )
    return lib, None


def load_kernel():
    """Return the bound :class:`ctypes.CDLL` for the kernel, or ``None``.

    The result (including failure) is cached for the life of the process;
    the failure reason is available via :func:`load_failure_reason`.
    """
    global _load_attempted, _loaded_kernel, _load_error
    if not _load_attempted:
        _load_attempted = True
        _loaded_kernel, _load_error = _load_uncached()
    return _loaded_kernel


def load_failure_reason() -> str | None:
    load_kernel()
    return _load_error


def emit_fallback_notice() -> None:
    """Print the one-time stderr notice for the bigint fallback path."""
    global _notice_emitted
    if _notice_emitted:
        return
    _notice_emitted = True
    reason = load_failure_reason() or "kernel unavailable"
    print(
        f"repro: native plane kernel unavailable ({reason}); "
        "falling back to bigint planes",
        file=sys.stderr,
    )


def _reset_for_tests() -> None:
    global _load_attempted, _loaded_kernel, _load_error, _notice_emitted
    _load_attempted = False
    _loaded_kernel = None
    _load_error = None
    _notice_emitted = False
