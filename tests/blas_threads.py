"""The thread counts of the OpenBLAS libraries this process has loaded, read and set through ctypes.

The tests of the study's one-thread rule read the counts here, by their
own scan of /proc/self/maps, and not through the code under test.  numpy
and scipy wheels each carry their own OpenBLAS, whose symbols differ in
prefix and in the 64-bit-integer suffix.
"""

import ctypes
from contextlib import contextmanager

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def library_paths():
    """The path of each loaded OpenBLAS, sorted; empty where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle if "openblas" in line]
    except OSError:
        return []
    # the sixth field is the path, which may itself hold spaces
    return sorted({line.split(maxsplit=5)[5] for line in lines if line.endswith(".so")})


def _libraries():
    """(get, set) thread-count functions of each loaded OpenBLAS, in path order."""
    found = []
    for path in library_paths():
        lib = ctypes.CDLL(path)
        symbols = (
            (getattr(lib, f"{prefix}_get_num_threads{suffix}", None), getattr(lib, f"{prefix}_set_num_threads{suffix}", None))
            for prefix in _PREFIXES
            for suffix in _SUFFIXES
        )
        get, set_threads = next((pair for pair in symbols if None not in pair), (None, None))
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            found.append((get, set_threads))
    return found


def blas_threads():
    """The thread count of each loaded OpenBLAS; empty where none is found."""
    return [get() for get, _ in _libraries()]


@contextmanager
def blas_threads_at(count):
    """Run the body with every loaded OpenBLAS at count threads, then set each back."""
    libraries = _libraries()
    before = [get() for get, _ in libraries]
    for _, set_threads in libraries:
        set_threads(count)
    try:
        yield
    finally:
        for (_, set_threads), threads in zip(libraries, before):
            set_threads(threads)
