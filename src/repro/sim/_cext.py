"""On-demand cc-compiled provider for the contention-solver kernel.

Compiles ``_csolver.c`` (the packed fixed-point kernel whose line-for-line
pure-python twin, ``tests/property/packed_kernel_oracle.py``, anchors the
differential suite) with the host C compiler into a shared object cached
next to the source, and exposes it through ctypes.  It is the provider
behind the default ``compiled`` backend; without a working ``cc`` the
backend falls back, with a warning, to the numpy batch solver.

The build is hermetic and failure-tolerant:

* the ``.so`` is keyed by the SHA-256 of the C source, so editing the
  kernel invalidates the cache automatically;
* artifacts land in ``src/repro/sim/_build/`` (gitignored), overridable
  via ``REPRO_CEXT_BUILD_DIR``, with a tempdir fallback when the tree is
  read-only;
* compilation happens at most once per process and never raises out of
  :func:`load_solver` — any failure (no compiler, sandboxed exec,
  unwritable disk) returns ``None`` and the backend layer falls through
  to the numpy fallback.

Optimisation flags deliberately exclude ``-ffast-math``: the kernel's
contract is bit-compatibility with the scalar solver, which fast-math's
reassociation would break.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["load_solver", "solve_packed_c"]

_SRC = Path(__file__).with_name("_csolver.c")
# -ffp-contract=off: compilers default to contracting a*b+c into FMA at
# -O2 on targets that have it, which changes rounding; the kernel's
# contract is bit-compatibility with the scalar solver.
_CFLAGS = ["-O2", "-shared", "-fPIC", "-fno-fast-math",
           "-ffp-contract=off"]

_lib: ctypes.CDLL | None = None
_probed = False

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_U8 = np.dtype(np.uint8)
_PTR = ctypes.c_void_p


def _build_dir() -> Path:
    override = os.environ.get("REPRO_CEXT_BUILD_DIR")
    if override:
        return Path(override)
    return _SRC.parent / "_build"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile(so_path: Path) -> bool:
    """Compile the C source to ``so_path`` atomically; False on failure."""
    cc = _compiler()
    if cc is None:
        return False
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=so_path.parent)
        os.close(fd)
    except OSError:
        return False
    try:
        result = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SRC), "-lm"],
            capture_output=True, timeout=120)
        if result.returncode != 0:
            return False
        os.replace(tmp, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def load_solver() -> ctypes.CDLL | None:
    """Return the loaded kernel library, building it if needed.

    Memoized per process; returns ``None`` (once and forever, for this
    process) if the source is missing, no compiler is available, or the
    build/load fails for any reason.
    """
    global _lib, _probed
    if _probed:
        return _lib
    _probed = True
    if not _SRC.is_file():
        return None
    digest = hashlib.sha256(
        _SRC.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    candidates = [_build_dir() / f"_csolver-{digest}.so"]
    if "REPRO_CEXT_BUILD_DIR" not in os.environ:
        candidates.append(
            Path(tempfile.gettempdir()) / f"repro-csolver-{digest}.so")
    for so_path in candidates:
        if not so_path.is_file() and not _compile(so_path):
            continue
        try:
            lib = ctypes.CDLL(str(so_path))
        except OSError:
            continue
        lib.solve_packed.restype = ctypes.c_int
        lib.solve_packed.argtypes = [
            _PTR, ctypes.c_int64,                 # offsets, n_batch
            _PTR, _PTR,                           # comp_of, dnn_of
            _PTR, _PTR, _PTR, _PTR,               # inflated..weights
            ctypes.c_int64, ctypes.c_int64,       # num_dnns, num_comp
            ctypes.c_int64, ctypes.c_double,      # max_iter, damping
            ctypes.c_double, ctypes.c_int64,      # tol, cycle_window
            ctypes.c_double, ctypes.c_int64,      # cycle_tol, cycle_burn_in
            _PTR, _PTR, _PTR, _PTR,               # out_rates..out_util
            _PTR, _PTR,                           # out_iters, out_conv
        ]
        _lib = lib
        return _lib
    return None


def _address(array: np.ndarray, dtype: np.dtype) -> int:
    """Data address of ``array``, checked to be C-contiguous ``dtype``.

    ``c_char.from_buffer`` refuses non-contiguous and read-only buffers,
    so one call both validates the layout and yields the pointer, at a
    fraction of ``ndpointer.from_param``'s per-argument cost.
    """
    if array.dtype != dtype or array.size == 0:
        raise TypeError(f"C solver expects a non-empty {dtype} array, got "
                        f"{array.dtype} of shape {array.shape}")
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def solve_packed_c(offsets, comp_of, dnn_of, inflated, kernel_time, hol_k,
                   weights, num_dnns, num_comp, max_iter, damping, tol,
                   cycle_window, cycle_tol, cycle_burn_in,
                   out_rates, out_alloc, out_eff, out_util, out_iters,
                   out_conv) -> None:
    """Call the C kernel with the same signature as the python kernel.

    Every array must be non-empty, C-contiguous and writable; ``out_conv``
    must be ``uint8`` (ctypes has no bool pointer).  Raises
    ``RuntimeError`` if the library is unavailable or the kernel reports
    an allocation failure.
    """
    lib = load_solver()
    if lib is None:
        raise RuntimeError("C solver library unavailable")
    status = lib.solve_packed(
        _address(offsets, _I64), offsets.shape[0] - 1,
        _address(comp_of, _I64), _address(dnn_of, _I64),
        _address(inflated, _F64), _address(kernel_time, _F64),
        _address(hol_k, _F64), _address(weights, _F64),
        num_dnns, num_comp, max_iter, damping, tol, cycle_window,
        cycle_tol, cycle_burn_in,
        _address(out_rates, _F64), _address(out_alloc, _F64),
        _address(out_eff, _F64), _address(out_util, _F64),
        _address(out_iters, _I64), _address(out_conv, _U8))
    if status != 0:
        raise RuntimeError("C solver scratch allocation failed")
