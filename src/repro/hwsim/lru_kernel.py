"""Build and load the compiled cache walk of :func:`repro.hwsim.replay`.

The kernel is ``lru_walk.c``, shipped next to this module as package
data. The first :func:`load` in a process compiles it with the system C
compiler (``cc -O2``), never at import, so processes that never replay
never pay for it. The shared library is cached in a private per-user
directory (mode 0700, owner checked) under a name keyed by a hash of the
source, the compiler and the flags. A build writes a temporary file and
publishes it with :func:`os.replace`, so concurrent processes never load
a half-written library. Loading a cached build starts no process: a
child would report this process's resident set as its own peak.

Without a working compiler :func:`load` warns once per process and
returns ``None``; replay then runs :func:`repro.hwsim.replay_reference`.
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
import warnings
from pathlib import Path

SOURCE = "lru_walk.c"
FLAGS = ("-O2", "-shared", "-fPIC")

_I64P = ctypes.POINTER(ctypes.c_int64)


class Lru(ctypes.Structure):
    """``lru_t``: one cache level's LRU sets, each in recency order."""

    _fields_ = [("tag", _I64P), ("fill", _I64P),
                ("sets", ctypes.c_int64), ("ways", ctypes.c_int64)]


class Walk(ctypes.Structure):
    """``walk_t``: carried cache state, counters and one chunk's arrays."""

    _fields_ = (
        [("l1", Lru), ("l2", Lru)]
        + [(name, ctypes.c_int64) for name in (
            "l1_accesses", "l1_hits", "l2_accesses",
            "dram_accesses", "prefetches", "line_bytes", "l1_lat", "l2_lat",
            "dram_lat", "merge_cap", "prefetch", "n_roots")]
        + [(name, _I64P) for name in (
            "root", "root_off", "tl_first", "tl_last")]
        + [("n_events", ctypes.c_int64)]
        + [(name, _I64P) for name in (
            "seg", "seg_sm", "addr", "first", "last", "npf", "pf_start",
            "pf_addr", "pf_nbytes", "window")]
        + [("merged", ctypes.POINTER(ctypes.c_uint8))]
        + [(name, _I64P) for name in ("lat", "dram_line", "dram_ev")]
        + [("n_dram", ctypes.c_int64)]
    )


def ptr(arr, ctype=ctypes.c_int64):
    """A C pointer into the numpy array ``arr``, which must outlive it."""
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def source():
    """The kernel's C source, found through the ``repro.hwsim`` package."""
    return importlib.resources.files("repro.hwsim") / SOURCE


def _cache_dir() -> Path:
    """The per-user build directory; refuses one another user could write."""
    path = Path(tempfile.gettempdir()) / f"repro-hwsim-{os.getuid()}"
    path.mkdir(mode=0o700, exist_ok=True)
    info = os.lstat(path)
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & 0o077):
        raise OSError(f"{path} is not a private directory")
    return path


def _build() -> Path:
    """Compile the kernel unless a build of this exact source, compiler
    and flags is already cached; returns the shared library's path."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    compiler = os.stat(cc)
    key = hashlib.sha256(b"\0".join([
        source().read_bytes(), os.path.realpath(cc).encode(),
        f"{compiler.st_size}:{compiler.st_mtime_ns}".encode(),
        " ".join(FLAGS).encode()])).hexdigest()[:16]
    lib = _cache_dir() / f"lru_walk-{key}.so"
    if lib.exists():
        return lib
    fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".so")
    os.close(fd)
    try:
        with importlib.resources.as_file(source()) as src:
            subprocess.run([cc, *FLAGS, "-o", tmp, str(src)],
                           capture_output=True, check=True)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


class _Loader:
    """Loads the kernel once per process, under a lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._loaded = False
        self._walk = None

    def load(self):
        """The kernel's ``lru_walk`` entry point, or ``None`` (warned
        about once) when it cannot be built or loaded."""
        with self._lock:
            if not self._loaded:
                self._loaded = True
                try:
                    walk = ctypes.CDLL(str(_build())).lru_walk
                except (OSError, subprocess.SubprocessError) as exc:
                    warnings.warn(
                        f"compiled replay kernel unavailable ({exc}); "
                        "hwsim.replay runs replay_reference instead",
                        RuntimeWarning, stacklevel=3)
                else:
                    walk.argtypes = [ctypes.POINTER(Walk)]
                    walk.restype = ctypes.c_int64
                    self._walk = walk
            return self._walk


_LOADER = _Loader()


def load():
    """The process's kernel entry point, or ``None`` without a compiler."""
    return _LOADER.load()
