"""In-order mapping, and one BLAS thread for each library call.

Replications and cross-validation folds run one after another in the
calling thread: the Python between a fit's small numpy calls holds the
GIL, so two threads ran fits slower than one.

A fit is a long run of small BLAS and LAPACK calls on p-dimensional
statistics, where waking a second BLAS thread costs more than it saves and
the thread count moves results at roundoff.  The public entry points that
run that linear algebra are decorated with :data:`one_blas_thread`, which
sets both bundled OpenBLAS pools (numpy's and scipy's) to one thread for
the call and restores the caller's counts when it returns or raises.
"""

import contextlib
import functools
import os
import threading

# package -> (file glob of its bundled OpenBLAS in <package>.libs, symbol suffix)
_OPENBLAS = {
    "numpy": ("libscipy_openblas64_*.so*", "64_"),
    "scipy": ("libscipy_openblas-*.so*", ""),
}


# perfbench/tracing.py wraps simulate.parallel_map and reads thread_count
def thread_count():
    """Workers a :func:`parallel_map` call uses: always 1."""
    return 1


def parallel_map(fn, items):
    """``[fn(x) for x in items]``, in order, in the calling thread."""
    return [fn(x) for x in items]


@functools.cache
def openblas_pools():
    """(get, set) ctypes functions of the thread count of each OpenBLAS found.

    numpy and scipy each bundle their own OpenBLAS, so a process has up to
    two pools.  A package whose library or symbols are not found (a build
    against another BLAS) contributes none.  Looked up on first use, so
    importing the package loads nothing more.
    """
    import ctypes
    import glob

    pools = []
    for package, (pattern, suffix) in _OPENBLAS.items():
        module = __import__(package)
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), f"{package}.libs")
        found = sorted(glob.glob(os.path.join(libs, pattern)))
        if not found:
            continue
        try:
            lib = ctypes.CDLL(found[0])
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        pools.append((get, put))
    return tuple(pools)


class _OneBlasThread(contextlib.ContextDecorator):
    """Context and decorator: both OpenBLAS pools on one thread inside.

    The thread counts are process-wide, so is this state.  Entries overlap
    when a call nests another (the fits inside run_replications) or when
    two threads call at once; the outermost entry saves each pool's count
    and sets it to 1, and the last exit restores the saved counts.  While
    any entry is open, BLAS calls from every thread of the process run on
    one thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((put, get()) for get, put in openblas_pools())
                for put, _ in self._saved:
                    put(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, count in self._saved:
                    put(count)
        return False


one_blas_thread = _OneBlasThread()
