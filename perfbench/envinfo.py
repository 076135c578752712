"""The environment block of a BENCH record, and BLAS pinning for the baseline.

numpy and scipy each bundle their own OpenBLAS, so a process has two BLAS
thread pools.  Both are read (and, for the pinned baseline, set) through
ctypes, by the symbol names the scipy-openblas builds export.
"""

import ctypes
import glob
import os
import platform
import subprocess

# package -> (glob of its bundled OpenBLAS in <package>.libs, symbol suffix)
_POOLS = {
    "numpy": ("libscipy_openblas64_*.so*", "64_"),
    "scipy": ("libscipy_openblas-*.so*", ""),
}

THREAD_VARS = ("EBSHRINK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _library(package):
    """ctypes handle on the package's bundled OpenBLAS, or None."""
    module = __import__(package)
    libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), f"{package}.libs")
    found = sorted(glob.glob(os.path.join(libs, _POOLS[package][0])))
    if not found:
        return None
    return ctypes.CDLL(found[0])


def _function(package, verb):
    lib = _library(package)
    if lib is None:
        return None
    name = f"scipy_openblas_{verb}_num_threads{_POOLS[package][1]}"
    try:
        fn = getattr(lib, name)
    except AttributeError:
        return None
    if verb == "get":
        fn.argtypes, fn.restype = [], ctypes.c_int
    else:
        fn.argtypes, fn.restype = [ctypes.c_int], None
    return fn


def blas_threads():
    """Thread count of each OpenBLAS pool, None where it cannot be read."""
    out = {}
    for package in _POOLS:
        getter = _function(package, "get")
        out[package] = None if getter is None else int(getter())
    return out


def pin_blas():
    """Set both OpenBLAS pools to one thread; True when both were set."""
    done = True
    for package in _POOLS:
        setter = _function(package, "set")
        if setter is None:
            done = False
        else:
            setter(1)
    return done


def _git_commit(root):
    """HEAD commit of the checkout, None outside a git repository.

    GIT_DIR keeps git from searching the directories above the checkout.
    """
    env = {**os.environ, "GIT_DIR": os.path.join(root, ".git")}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root):
    """Everything about the machine and build that can move a timing."""
    import numpy
    import scipy

    from ebshrink import kernels

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "blas_threads": blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "kernel_backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }
