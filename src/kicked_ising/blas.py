"""The OpenBLAS thread count of the numpy and scipy wheels, read and set through ctypes.

Each wheel bundles its own OpenBLAS in ``<package>.libs``: numpy's serves
``numpy.linalg`` and ``matmul``, scipy's serves ``scipy.linalg``.  Their
thread-count functions are exported under the names of their builds: with a
``scipy_openblas_`` prefix (and a ``64_`` suffix in numpy's 64-bit integer
build) in current wheels, plain ``openblas_`` in older ones.  A BLAS found
nowhere there is left as it is.

The engine's period loop reads ``threads`` to decide how many slices a large
stack is cut into, and then runs the slices on threads of its own with
OpenBLAS held at one thread (``one_thread``) for as long as the loop runs,
including while an ``iter_return_probability`` generator is suspended
between periods; the count is restored when the loop ends or is closed.
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
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _thread_functions() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS bundled with numpy or scipy."""
    import scipy  # here, not at start-up: most runs never set a thread count

    found = []
    for package in (np, scipy):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            library = ctypes.CDLL(str(path))
            for get_name, set_name in _THREAD_FUNCTIONS:
                if hasattr(library, get_name) and hasattr(library, set_name):
                    get, put = getattr(library, get_name), getattr(library, set_name)
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
                    break
    return tuple(found)


def threads() -> int:
    """The largest thread count of the bundled OpenBLAS libraries, 1 when there is none."""
    return max((get() for get, _ in _thread_functions()), default=1)


def set_threads(count: int) -> None:
    """Set every bundled OpenBLAS to ``count`` threads (pool initializer)."""
    for _, put in _thread_functions():
        put(count)


@contextlib.contextmanager
def one_thread():
    """Run the body on one OpenBLAS thread, then restore each library's previous count."""
    functions = _thread_functions()
    before = [get() for get, _ in functions]
    set_threads(1)
    try:
        yield
    finally:
        for (_, put), count in zip(functions, before):
            put(count)
