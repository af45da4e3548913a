"""Process-wide allocator policy for the large, short-lived numpy buffers.

Every training step, evaluation batch and denoise window frees tens to
hundreds of MB of activations and allocates the same sizes again right
after. By default glibc hands a large freed block back to the OS (heap trim,
and a dynamic mmap threshold), so the next allocation of the same size
page-faults it in again, zero-filled. `keep_freed_memory_in_heap` keeps those
blocks in the process heap instead, at the cost of holding the process's
peak heap until it exits. Its one caller is `TransformerUNet1D.forward`, so
every training step and every inference runs under the policy.
"""

from __future__ import annotations

import ctypes
import functools

__all__ = ["keep_freed_memory_in_heap"]

# glibc's mallopt parameters (malloc.h) and its ceiling for the dynamic mmap threshold
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


@functools.cache
def keep_freed_memory_in_heap() -> None:
    """Serve blocks up to 32 MiB from a heap that is never trimmed, once per process.

    Both values are set: a fixed trim threshold alone turns off the dynamic
    mmap threshold and makes every block above 128 KiB an mmap. Does nothing
    where libc has no `mallopt` (macOS, musl).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load by name
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
