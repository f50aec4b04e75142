"""Build and load the C kernels shipped with the package.

A kernel is one ``.c`` file shipped as package data next to the module
that calls it; its entry point is named after the file and takes one
struct pointer (``int64_t round_walk(walk_t *)`` in ``round_walk.c``).
The first :func:`kernel` call for a source in a process compiles it with
the system C compiler (``cc``), never at import, so processes that never
record or replay never pay for it. Shared libraries are cached in a
private per-user directory (mode 0700, owner checked) under names keyed
by a hash of the source, the compiler and the flags. A build writes a
temporary file and publishes it with :func:`os.replace`, so concurrent
processes never load a half-written library. Loading a cached build
starts no process: a child would report this process's resident set as
its own peak.

Trace recording and replay need their kernels: without a working
compiler :func:`kernel` raises :class:`NativeUnavailable`.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.resources
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path

#: One flag set for every kernel; ``-ffp-contract=off`` keeps floating
#: point bit-identical to Python's (no fused multiply-adds).
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class NativeUnavailable(RuntimeError):
    """A shipped C kernel cannot be built or loaded: no ``cc`` on
    ``PATH``, or the build failed."""


def ptr(arr, ctype=ctypes.c_int64):
    """A C pointer into the numpy array ``arr``, which must outlive it."""
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def source(package: str, name: str):
    """The C source ``name``, found through ``package``."""
    return importlib.resources.files(package) / name


def _cache_dir() -> Path:
    """The per-user build directory; refuses one another user could write."""
    path = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    path.mkdir(mode=0o700, exist_ok=True)
    info = os.lstat(path)
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & 0o077):
        raise OSError(f"{path} is not a private directory")
    return path


def _build(package: str, name: str) -> Path:
    """Compile ``name`` unless a build of this exact source, compiler and
    flags is already cached; returns the shared library's path."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    compiler = os.stat(cc)
    src = source(package, name)
    key = hashlib.sha256(b"\0".join([
        src.read_bytes(), os.path.realpath(cc).encode(),
        f"{compiler.st_size}:{compiler.st_mtime_ns}".encode(),
        " ".join(FLAGS).encode()])).hexdigest()[:16]
    lib = _cache_dir() / f"{Path(name).stem}-{key}.so"
    if lib.exists():
        return lib
    fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".so")
    os.close(fd)
    try:
        with importlib.resources.as_file(src) as path:
            subprocess.run([cc, *FLAGS, "-o", tmp, str(path)],
                           capture_output=True, check=True)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


_LOCK = threading.Lock()
#: Loaded entry points by ``(package, source)``; guarded by ``_LOCK``.
_KERNELS: dict[tuple[str, str], object] = {}


def kernel(package: str, name: str, struct):
    """The entry point of the shipped source ``name`` in ``package``,
    typed ``int64_t entry(struct *)``; built and loaded once per process.

    Raises :class:`NativeUnavailable` when it cannot be built or loaded.
    """
    key = (package, name)
    with _LOCK:
        fn = _KERNELS.get(key)
        if fn is None:
            try:
                lib = ctypes.CDLL(str(_build(package, name)))
            except (OSError, subprocess.SubprocessError) as exc:
                raise NativeUnavailable(
                    f"cannot build the {name} kernel ({exc}); trace "
                    "recording and replay need a C compiler (cc) on PATH"
                ) from exc
            fn = getattr(lib, Path(name).stem)
            fn.argtypes = [ctypes.POINTER(struct)]
            fn.restype = ctypes.c_int64
            _KERNELS[key] = fn
        return fn
