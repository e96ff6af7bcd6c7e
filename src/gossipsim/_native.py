"""The package's compiled library, `_slots.c`, and its hash, BLAKE2b.

`library()` builds and loads the library once per process. It holds the
engine's slots (`montecarlo._KernelSlots`), whose numpy twin
(`montecarlo._NumpySlots`) runs where it does not load and gives the same
bits. `blake2b`, the interpreter's builtin BLAKE2b, names the cached build
and hashes `config_hash`'s text; it needs no library, so a command that
runs no trial, `check`, neither builds nor loads one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.util
import os
import tempfile
from pathlib import Path

try:  # the builtin module: `hashlib` would also load OpenSSL's `_hashlib`
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it; the same function
    from hashlib import blake2b

__all__ = ["library", "blake2b"]

_SOURCE = Path(__file__).with_name("_slots.c")
# no fused multiply-add and no fast-math: the kernel rounds as numpy does
_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def library() -> ctypes.CDLL | None:
    """`_slots.c` loaded with ctypes, or None when it cannot be built or
    loaded; every caller then runs its twin.

    The library is compiled with the platform compiler (sysconfig's CC,
    else cc) once per hash of the source and flags (BLAKE2b-64, the 16 hex
    digits in the file's name), into the `__pycache__` path of the source
    (so it follows PYTHONPYCACHEPREFIX as .pyc files do), under a temporary
    name and then moved into place, and the builds of earlier sources there
    are deleted. A cached file that does not load is rebuilt. The first
    trial a process runs calls this; importing the package does not.
    """
    try:
        digest = blake2b(_SOURCE.read_bytes() + " ".join(_FLAGS).encode(),
                         digest_size=8).hexdigest()
        lib = Path(importlib.util.cache_from_source(str(_SOURCE))).with_suffix(f".{digest}.so")
    except (OSError, NotImplementedError):  # no source, or no cache tag
        return None
    try:
        return _declare(ctypes.CDLL(str(lib)))
    except (OSError, AttributeError):  # not built yet, or a broken file
        pass
    import shlex
    import subprocess
    import sysconfig

    try:
        lib.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
        os.close(fd)
        try:
            cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
            subprocess.run([*cc, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                           check=True, stdin=subprocess.DEVNULL, capture_output=True)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        # the builds of earlier sources go; a concurrent build's mkstemp file stays
        for old in lib.parent.glob(lib.name.replace(digest, "[0-9a-f]" * 16)):
            if old != lib:
                with contextlib.suppress(OSError):
                    old.unlink()
        return _declare(ctypes.CDLL(str(lib)))
    except (OSError, ValueError, subprocess.SubprocessError, AttributeError):
        return None  # no compiler, a failed build, no writable cache


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """`lib` with the signatures of all its functions set, once, as it is
    loaded: nothing changes them afterwards, so threads share the library
    freely. The slots' `chunk` struct (`montecarlo._Chunk`) goes by its
    address, `ctypes.addressof(chunk)`. Raises AttributeError when a
    function is missing."""
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.draw_uniform.restype = lib.run_slots.restype = None
    lib.draw_uniform.argtypes = [ptr, f64, f64]
    lib.run_slots.argtypes = [ptr, ptr, i64, i64, i64]
    return lib
