"""Run numpy's BLAS on one thread inside a block.

The affine propagator of models A and B multiplies dense (n+1) x (n+1)
matrices and applies them to blocks of states. At the presets' n = 200 a
product takes well under a millisecond on one core, so OpenBLAS's default
of one thread per core gains little, and it loses a lot when the cores are
shared: its threads wait for each other inside every product. On a
two-core machine with one other busy process, an ``entropy-A`` run
(t_end 0.7) took 26-260 ms with the default threads and 22-38 ms on
one thread.

:func:`serial_blas` sets OpenBLAS to one thread for the block and restores
the previous count after it. A count that is already 1 is not touched:
setting the count restarts OpenBLAS's helper threads. The count is
process-wide, so the block should not overlap another thread's BLAS
work. numpy's OpenBLAS is found among the shared objects the process has
mapped (``/proc/self/maps``, Linux); with another BLAS, or on another
system, the block runs unchanged.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

# (getter, setter) names: scipy-openblas wheels (64- and 32-bit integers),
# then plain OpenBLAS with and without the 64-bit-integer suffix.
_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)


@functools.lru_cache(maxsize=None)
def thread_controls() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get, set)`` of the loaded OpenBLAS's thread count, or None if there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in maps)
                if len(fields) == 6 and "openblas" in fields[5].rsplit("/", 1)[-1]
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already mapped: the loaded copy, not a second one
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                put.restype = None
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


@contextmanager
def serial_blas() -> Iterator[None]:
    """One OpenBLAS thread inside the block; the previous count afterwards."""
    controls = thread_controls()
    if controls is None:
        yield
        return
    get, put = controls
    previous = get()
    if previous == 1:
        yield
        return
    put(1)
    try:
        yield
    finally:
        put(previous)
