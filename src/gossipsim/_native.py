"""The package's compiled library, `_slots.c`, and the FNV-1a hash.

`library()` builds and loads the library once per process. It holds the
engine's slots (`montecarlo._KernelSlots`), whose numpy twin
(`montecarlo._NumpySlots`) runs where it does not load and gives the same
bits. `_fnv1a64` is the FNV-1a hash of `config_hash`, in numpy, and
`fnv1a64_pieces` chains it over text written in pieces: they need no
library, so a command that runs no trial, `check`, neither builds nor
loads it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.util
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

__all__ = ["library", "fnv1a64_pieces"]

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
# bytes hashed at a time: a block's temporaries take about 43 bytes a byte,
# so a hash stays within 345 KiB however long the text. On a 1000-node
# Watts-Strogatz config's 147 KB text, 16 KiB blocks peaked at 626 KiB in
# 2.8 ms, 8 KiB blocks at 345 KiB in 3.8 ms (tracemalloc; 2-core host)
FNV_BLOCK = 1 << 13
_U64 = (1 << 64) - 1
_BYTES_OF_WORD = 0x0101010101010101

_SOURCE = Path(__file__).with_name("_slots.c")
# no fused multiply-add and no fast-math: the kernel rounds as numpy does
_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


def _fnv1a64(data, h: int = FNV_OFFSET) -> int:
    """FNV-1a-64 of the bytes-like `data` (h <- (h ^ b) * P mod 2^64 per
    byte), in numpy, from the state `h`: `FNV_OFFSET`, or the hash of the
    bytes before `data`, which chains the hash over pieces.

    With l the low byte of h, h ^ b = h + d for d = (l ^ b) - l, so over a
    block h_N = h_0 P^N + sum_k d_k P^(N-k) mod 2^64: one wrapping dot
    product once the low bytes l_k are known. Those evolve on their own,
    l_(k+1) = (l_k ^ b_k) * P mod 256, and as P is odd, bit j of
    x * P mod 256 is x_j ^ bit j of (x mod 2^j) * P. Given the bits below j
    of every l_k, bit j of l is then a running xor, one layer at a time.
    Blocks of `FNV_BLOCK` bytes bound the memory.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    # powers[i] = P^(i+1) mod 2^64
    powers = np.multiply.accumulate(np.full(min(FNV_BLOCK, buf.size), FNV_PRIME, np.uint64))
    for start in range(0, buf.size, FNV_BLOCK):
        m = min(FNV_BLOCK, buf.size - start)
        b = np.zeros(-(-m // 8) * 8, dtype=np.uint8)  # whole words for the xor scan
        b[:m] = buf[start:start + m]
        low = np.zeros_like(b)
        low[0] = l0 = h & 0xFF
        for j in range(8):
            flips = (((low ^ b) & ((1 << j) - 1)) * (FNV_PRIME & 0xFF) ^ b) >> j & 1
            # running xor: within each 8-byte word, then across words
            words = flips.view("<u8")
            words ^= words << 8
            words ^= words << 16
            words ^= words << 32
            words[1:] ^= np.bitwise_xor.accumulate(words[:-1] >> 56) * _BYTES_OF_WORD
            low[1:] |= (flips[:-1] ^ (l0 >> j & 1)) << j
        low, b = low[:m], b[:m]
        delta = (low ^ b).astype(np.uint64) - low
        h = (h * int(powers[m - 1]) + int(np.dot(delta, powers[m - 1::-1]))) & _U64
    return h


def fnv1a64_pieces(pieces: Iterable[str]) -> int:
    """`_fnv1a64` of the ASCII text the `pieces` join to, fed `FNV_BLOCK`
    bytes at a time as the pieces come: the text is never held whole."""
    h = FNV_OFFSET
    pending = bytearray()
    for piece in pieces:
        pending += piece.encode("ascii")
        if len(pending) >= FNV_BLOCK:
            cut = len(pending) - len(pending) % FNV_BLOCK
            h = _fnv1a64(bytes(pending[:cut]), h)
            del pending[:cut]
    return _fnv1a64(bytes(pending), h)


@functools.cache
def library() -> ctypes.CDLL | None:
    """`_slots.c` loaded with ctypes, or None when it cannot be built or
    loaded; every caller then runs its twin.

    The library is compiled with the platform compiler (sysconfig's CC,
    else cc) once per hash of the source and flags, into the `__pycache__`
    path of the source (so it follows PYTHONPYCACHEPREFIX as .pyc files
    do), under a temporary name and then moved into place, and the builds
    of earlier sources there are deleted. A cached file that does not load
    is rebuilt. The first trial a process runs calls this; importing the
    package does not.
    """
    try:
        digest = _fnv1a64(_SOURCE.read_bytes() + " ".join(_FLAGS).encode())
        lib = Path(importlib.util.cache_from_source(str(_SOURCE)))
    except (OSError, NotImplementedError):  # no source, or no cache tag
        return None
    lib = lib.with_suffix(f".{digest:016x}.so")
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
        for old in lib.parent.glob(lib.name.replace(f"{digest:016x}", "[0-9a-f]" * 16)):
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
