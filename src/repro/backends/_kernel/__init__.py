"""Build-on-first-use loader for the native plane kernel.

The kernel is a single C file (``kernel.c``) compiled to a shared library
with whatever C compiler the host has, then loaded through :mod:`ctypes`
(no third-party build dependency).  The build picks an ISA tier from
the first ``flags`` line of ``/proc/cpuinfo``: ``-mavx2 -mpopcnt`` where
it lists ``avx2`` and ``popcnt``, plus ``-mavx512f -mavx512vl`` where it
also lists ``avx512f`` and ``avx512vl`` (GCC then computes each plane of
a fused three-input op with one ``vpternlogq`` on 512-bit registers);
elsewhere -- no ``/proc/cpuinfo`` (macOS), no ``flags`` line (aarch64)
-- it uses the plain flags.  Builds are cached per host under
``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro/native``) in a file
keyed on the SHA-256 of the kernel source, the full compiler command and
its identity, and the flags, so upgrading the source, switching
compilers or sharing a cache between hosts of different tiers rebuilds
rather than serving the wrong artifact, while repeat imports just
``dlopen`` the cached one.

Everything degrades gracefully: no compiler, a failed build, a bad cached
artifact, or ``REPRO_NO_NATIVE=1`` all make :func:`load_kernel` return
``None``, and the native backend runs its verification shards in Python
after a one-time stderr notice.  One lock covers the whole attempt, so a
thread that asks while another builds waits for that build's result.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading

_KERNEL_ABI = 8
_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "kernel.c")
_CFLAGS = ["-O3", "-shared", "-fPIC", "-std=c99"]
#: ISA tiers, lowest first: a tier's flags are added to _CFLAGS when
#: _CPUINFO lists its CPU features and every lower tier's.  On the
#: AVX-512 tier GCC computes each plane of a fused op with one vpternlogq.
_ISA_TIERS = [
    ({"avx2", "popcnt"}, ["-mavx2", "-mpopcnt"]),
    ({"avx512f", "avx512vl"}, ["-mavx512f", "-mavx512vl"]),
]
_CPUINFO = "/proc/cpuinfo"

#: Held across the load attempt, so concurrent first callers wait for
#: its result; also makes the fallback notice one-time.
_lock = threading.Lock()
_load_attempted = False
_loaded_kernel = None
_load_error: str | None = None
_loaded_isa: list[str] = []
_notice_emitted = False


def native_disabled_by_env() -> bool:
    return os.environ.get("REPRO_NO_NATIVE", "") not in ("", "0")


def _find_compiler() -> list[str] | None:
    """The compiler command as an argv prefix, or ``None``.

    An explicit $CC wins exclusively: if it is set but broken the build
    fails and the backend falls back, which is how CI's no-compiler job
    poisons the toolchain without uninstalling gcc.  Like make, it may
    carry arguments (``ccache gcc``, ``gcc -pthread``): the first word
    is looked up and the rest go before the kernel flags.
    """
    cc = os.environ.get("CC")
    if cc is not None:
        import shlex  # only a $CC needs splitting: verify imports stay lean

        try:
            argv = shlex.split(cc)
        except ValueError:
            return None
        return argv if argv and shutil.which(argv[0]) else None
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return [candidate]
    return None


def _compiler_id(cc: list[str]) -> str:
    try:
        out = subprocess.run(
            [*cc, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        ).stdout
        first = out.splitlines()[0] if out else ""
    except (OSError, subprocess.SubprocessError):
        first = ""
    return f"{' '.join(cc)} {first}".strip()


def _isa_flags() -> list[str]:
    """The flags of every ``_ISA_TIERS`` tier, lowest first, whose CPU
    features the first ``flags`` line of ``_CPUINFO`` lists up to the
    first tier it lacks; none without such a file or line."""
    try:
        with open(_CPUINFO, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    cpu = set(line.partition(":")[2].split())
                    flags: list[str] = []
                    for features, tier in _ISA_TIERS:
                        if not features <= cpu:
                            break
                        flags += tier
                    return flags
    except OSError:
        pass
    return []


def _kernel_name(source: str, cc: list[str], flags: list[str]) -> str:
    """Cache file name of the build of ``source`` by ``cc`` with ``flags``."""
    key = hashlib.sha256(
        "\x00".join([source, _compiler_id(cc), " ".join(flags)]).encode()
    ).hexdigest()[:16]
    return f"repro_kernel_{key}.so"


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")


def _build(cc: list[str], flags: list[str], out_path: str) -> None:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        suffix=".so", dir=os.path.dirname(out_path), prefix=".build-"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [*cc, *flags, "-o", tmp, _SOURCE_PATH],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip().splitlines()
            raise RuntimeError(
                f"{cc[0]} exited {proc.returncode}"
                + (f": {detail[-1]}" if detail else "")
            )
        os.replace(tmp, out_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    # All pointer parameters are declared c_void_p so callers can pass raw
    # integer addresses (the aligned tile slab's) without building ctypes
    # pointer objects -- that per-call marshalling is measurable on the
    # hot verification path.  c_void_p also accepts ctypes arrays
    # directly, so the program, mask-row and diff arrays pass as-is.
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.repro_kernel_abi.argtypes = []
    lib.repro_kernel_abi.restype = ctypes.c_int32
    lib.repro_tile_words.argtypes = []
    lib.repro_tile_words.restype = i64
    lib.repro_pair_shard.argtypes = [
        ptr, i64,            # prog
        ptr, i64,            # [row, a_row, b_row] compare triples
        ptr, i64,            # [row, p0_ones, p1_ones] preset rows
        ptr, ptr,            # m0 / m1 string-mask rows
        i64, i64,            # width, words per mask row
        i64, i64,            # g_lo, g_hi
        ptr, i64,            # scratch, n_rows
        ptr,                 # diff
        ptr,                 # per-output mismatch counts, or NULL
    ]
    lib.repro_pair_shard.restype = i64
    return lib


def _load_uncached(flags: list[str]) -> tuple[ctypes.CDLL | None, str | None]:
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
    name = _kernel_name(source, cc, flags)
    try:
        so_path = os.path.join(_cache_dir(), name)
        if not os.path.exists(so_path):
            _build(cc, flags, so_path)
        lib = _bind(ctypes.CDLL(so_path))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        # A stale or foreign cache dir shouldn't kill the backend: retry
        # once in a throwaway location before giving up.
        try:
            tmp_dir = tempfile.mkdtemp(prefix="repro-native-")
            so_path = os.path.join(tmp_dir, name)
            _build(cc, flags, so_path)
            lib = _bind(ctypes.CDLL(so_path))
        except (OSError, RuntimeError, subprocess.SubprocessError):
            return None, f"kernel build failed with {' '.join(cc)}: {exc}"
    if lib.repro_kernel_abi() != _KERNEL_ABI:
        return None, (
            f"cached kernel ABI {lib.repro_kernel_abi()} != expected {_KERNEL_ABI}"
        )
    return lib, None


def load_kernel():
    """Return the bound :class:`ctypes.CDLL` for the kernel, or ``None``.

    The result (including failure) is cached for the life of the process;
    the failure reason is available via :func:`load_failure_reason`.
    Concurrent first calls all wait for the one attempt.
    """
    global _load_attempted, _loaded_kernel, _load_error, _loaded_isa
    with _lock:
        if not _load_attempted:
            isa = _isa_flags()
            _loaded_kernel, _load_error = _load_uncached([*_CFLAGS, *isa])
            _loaded_isa = isa if _loaded_kernel is not None else []
            _load_attempted = True
    return _loaded_kernel


def load_failure_reason() -> str | None:
    load_kernel()
    return _load_error


def isa_flags() -> list[str]:
    """The ISA flags the loaded kernel was built with (``[]`` for the
    plain build, or when no kernel loaded)."""
    load_kernel()
    return list(_loaded_isa)


def emit_fallback_notice() -> None:
    """Print the one-time stderr notice for the Python shard fallback."""
    global _notice_emitted
    reason = load_failure_reason() or "kernel unavailable"
    with _lock:
        if _notice_emitted:
            return
        _notice_emitted = True
    print(
        f"repro: native plane kernel unavailable ({reason}); "
        "falling back to bigint planes",
        file=sys.stderr,
    )


def _reset_for_tests() -> None:
    global _load_attempted, _loaded_kernel, _load_error, _loaded_isa
    global _notice_emitted
    _load_attempted = False
    _loaded_kernel = None
    _load_error = None
    _loaded_isa = []
    _notice_emitted = False
