"""One BLAS thread while the library trains or evaluates.

A multi-threaded OpenBLAS splits some GEMMs' sums by thread, so the thread
count would change the last bits of a trained model. ``one_blas_thread``
pins numpy's bundled OpenBLAS to one thread for the duration of a call and
restores the caller's count afterwards, also when the call raises. It finds
the library's thread-count functions the first time it is entered; where
numpy's BLAS does not export them, it warns once and pins nothing.
"""

from __future__ import annotations

import ctypes
import functools
import warnings
from contextlib import contextmanager

__all__ = ["one_blas_thread"]

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"


def _load(path: str):
    """(get, set) thread-count functions of the library at ``path``, or None with a warning."""
    lib = ctypes.CDLL(path)
    try:
        get, set_ = getattr(lib, _GET), getattr(lib, _SET)
    except AttributeError:
        warnings.warn(
            f"numpy's BLAS exports no {_SET}: the BLAS thread count is not pinned, "
            "so results may differ between thread counts"
        )
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def _openblas():
    # numpy's core extension links its BLAS, and symbol lookup through a
    # library's handle also searches the libraries it links.
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath

    return _load(_multiarray_umath.__file__)


@contextmanager
def one_blas_thread():
    """Run the body (or, as a decorator, each call) at one BLAS thread."""
    lib = _openblas()
    if lib is None:
        yield
        return
    get, set_ = lib
    prev = get()
    set_(1)
    try:
        yield
    finally:
        set_(prev)
