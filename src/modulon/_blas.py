"""One OpenBLAS thread for modulon's small dense kernels.

numpy and scipy each load their own OpenBLAS (``numpy.libs``,
``scipy.libs``), and each defaults to one thread per CPU.  At the matrix
sizes modulon's Bloch solves, propagators and projectors use, two threads
never pay and are often slower: on a 2-CPU machine ``expm`` at n = 65 took
8.0 ms on two threads against 1.5 ms on one, and a complex ``eig`` at
n = 65 46.8 ms against 7.1 ms.  Near n = 769 the two cross over (real
``eigvals`` 563 / 545 ms, complex ``expm`` 466 / 802 ms at 2 / 1 threads),
and at n = 1025 two threads win by 1.3-1.6x, so only n <= ``SERIAL_MAX_N``
is pinned.  One thread also makes the pinned kernels' output bits
independent of the machine's default thread count.

``serial(n)`` sets both libraries to one thread for the scope of a block
and restores the previous counts on exit.  The counts are process-wide, so
scopes entered from concurrent Python threads would race; modulon enters
them from one.  The thread-count symbols are
looked up once, on first use; where they are not found (another BLAS
build) the scope does nothing.

modulon imports ``scipy.linalg`` and ``scipy.fft`` only inside the kernels
that call them, so the band pipeline never loads SciPy.  The libraries are
found by their packages' install locations (``importlib.util.find_spec``),
which imports neither package: SciPy's OpenBLAS is loaded here by path, and
the ``scipy.linalg`` imported later inside a scope links the same loaded
library, so a count set before SciPy loads is the count its kernels run on.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import os
from contextlib import contextmanager

SERIAL_MAX_N = 513   # largest matrix size run on one thread

# (package, get symbol, set symbol) of the OpenBLAS each package bundles
_SYMBOLS = (("numpy", "scipy_openblas_get_num_threads64_",
             "scipy_openblas_set_num_threads64_"),
            ("scipy", "scipy_openblas_get_num_threads",
             "scipy_openblas_set_num_threads"))


@functools.cache
def thread_controls() -> tuple:
    """(package, get, set) for each bundled OpenBLAS whose thread-count
    functions are found."""
    found = []
    for pkg, get_name, set_name in _SYMBOLS:
        origin = importlib.util.find_spec(pkg).origin
        libdir = os.path.join(os.path.dirname(os.path.dirname(origin)),
                              pkg + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((pkg, get, set_))
                break
    return tuple(found)


@contextmanager
def serial(n: int):
    """Run the block on one OpenBLAS thread when the matrix size n is at
    most ``SERIAL_MAX_N``; the previous counts come back on exit."""
    controls = thread_controls() if n <= SERIAL_MAX_N else ()
    saved = [get() for _, get, _ in controls]
    for _, _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, _, set_), count in zip(controls, saved):
            set_(count)
