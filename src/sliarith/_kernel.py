"""The compiled kernel: _kernel.c, built once per source and loaded.

The build is named after a hash of the C source, its declarations and
the compiler flags, and sits beside the source as the extension module
_kernel_<hash>.  Importing this module loads that build, or first makes
it when there is none: cffi writes the binding module's C (in a child
process, so that its parser stays out of this one) and gcc compiles it
with -O2 -ffp-contract=off against the libm that math calls, in a
temporary directory, from which the result is renamed into place.
Nothing is printed; a failed build raises ImportError with the
compiler's message.  Other builds of the kernel left beside it are
then removed.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.machinery
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The functions of _kernel.c that Python calls.
_CDEF = """
double phi(double zeta);
double log_phi10(double zeta);
double psi(double v);
double encode_zeta(double a);
double li_add_sub(double zeta_x, double zeta_y, int subtract, int reciprocal_y);
double li_mul_div(double zeta_x, double zeta_y, int divide);
double ratio_log(double zeta_b, double zeta_s, int subtract);
ptrdiff_t ladder_lanes(size_t n, int level_bits, int index_bits, int is_signed,
                       const int64_t *key);
void phi_lanes(size_t n, const double *zeta, double *out);
void log_phi10_lanes(size_t n, const double *zeta, double *out);
ptrdiff_t encode_lanes(size_t n, int is_signed, const double *value, int64_t *sign,
                       int64_t *reciprocal, double *zeta);
ptrdiff_t add_operands_lanes(size_t n, int level_bits, int index_bits, int is_signed,
                             const int64_t *x, const int64_t *y, double *zeta_x,
                             double *zeta_y, _Bool *subtract, _Bool *reciprocal_y,
                             int64_t *sign, int64_t *reciprocal);
void add_results_lanes(size_t n, int level_bits, int index_bits, const int64_t *x,
                       const int64_t *y, double *zeta, int64_t *sign, int64_t *reciprocal);
ptrdiff_t mul_operands_lanes(size_t n, int level_bits, int index_bits, int is_signed,
                             const int64_t *x, const int64_t *y, double *zeta_x,
                             double *zeta_y, _Bool *divide, int64_t *sign, int64_t *reciprocal);
void mul_results_lanes(size_t n, const int64_t *x, const int64_t *y, const _Bool *flipped,
                       double *zeta, int64_t *reciprocal);
void round_lanes(size_t n, int level_bits, int index_bits, const int64_t *sign,
                 const int64_t *reciprocal, const double *zeta, int64_t *key);
ptrdiff_t li_add_sub_lanes(size_t n, const double *zeta_x, const double *zeta_y,
                           const _Bool *subtract, const _Bool *reciprocal_y, double *out);
ptrdiff_t li_mul_div_lanes(size_t n, const double *zeta_x, const double *zeta_y,
                           const _Bool *divide, double *out, _Bool *flipped);
"""
# Run in a child: argv is the module name, the declarations, the C
# source and the file to write the binding module's C into.
_EMIT = ("import sys, cffi; ffi = cffi.FFI(); ffi.cdef(sys.argv[2]); "
         "ffi.set_source(sys.argv[1], sys.argv[3]); ffi.emit_c_code(sys.argv[4])")


def _build(module: str, source: str, target: Path) -> None:
    with tempfile.TemporaryDirectory(prefix="_kernel_build_", dir=_HERE) as tmp:
        c_file, built = Path(tmp) / "kernel.c", Path(tmp) / target.name
        steps = (
            [sys.executable, "-c", _EMIT, f"{__package__}.{module}", _CDEF, source, str(c_file)],
            ["gcc", *_CFLAGS, "-I", sysconfig.get_paths()["include"], str(c_file), "-o",
             str(built), "-lm"],
        )
        for cmd in steps:
            try:
                subprocess.run(cmd, check=True, capture_output=True, text=True)
            except (OSError, subprocess.CalledProcessError) as e:
                detail = getattr(e, "stderr", None) or e
                raise ImportError(f"cannot build the sliarith kernel: {detail}") from None
        os.replace(built, target)


def _load():
    source = (_HERE / "_kernel.c").read_text()
    tag = hashlib.sha256("\0".join((source, _CDEF, *_CFLAGS)).encode()).hexdigest()[:16]
    module = f"_kernel_{tag}"
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    target = _HERE / (module + suffix)
    if not target.exists():
        _build(module, source, target)
        for old in _HERE.glob("_kernel_*" + suffix):
            if old != target:
                old.unlink(missing_ok=True)
    return importlib.import_module(f".{module}", __package__)


_built = _load()
ffi, lib = _built.ffi, _built.lib
