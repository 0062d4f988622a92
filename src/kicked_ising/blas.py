"""The OpenBLAS thread count of the numpy wheel, read and set through ctypes.

numpy's wheel bundles its OpenBLAS in ``numpy.libs``; it serves
``numpy.linalg`` and ``matmul``, which are all the period loop and the sweep
pool workers multiply with.  Its thread-count functions are exported under
the name of its build: with a ``scipy_openblas_`` prefix in current wheels,
plain ``openblas_`` in older ones, and a ``64_`` suffix in a 64-bit integer
build.  A BLAS found nowhere there is left as it is, and counts as one thread.
No other BLAS serves the package, whose one dependency is numpy.

The engine's period loop reads ``threads`` to decide how many slices a large
stack is cut into, and then runs the slices on threads of its own with
OpenBLAS held at one thread (``one_thread``) for as long as the loop runs,
including while an ``iter_return_probability`` generator is suspended
between periods; the count is restored when the loop ends or is closed.
The sweep's process pool forks its workers inside ``one_thread`` too, so
each worker starts at one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
from functools import lru_cache
from pathlib import Path

import numpy as np

#: (getter, setter) names, one pair per OpenBLAS build.
_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _thread_functions():
    """(get, set) thread-count functions of the OpenBLAS bundled with numpy, None without one."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        library = ctypes.CDLL(str(path))
        for get_name, set_name in _THREAD_FUNCTIONS:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get, put = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def threads() -> int:
    """numpy's OpenBLAS thread count, 1 when there is none."""
    functions = _thread_functions()
    return functions[0]() if functions else 1


def set_threads(count: int) -> None:
    """Set numpy's OpenBLAS, if any, to ``count`` threads."""
    functions = _thread_functions()
    if functions:
        functions[1](count)


@contextlib.contextmanager
def one_thread():
    """Run the body on one OpenBLAS thread, then restore the previous count."""
    before = threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
