"""Compile-on-demand loader for the native hot-path kernels.

The kernels ship as C source (``kernels.c``) and are compiled to a
shared object on first use with whatever C compiler the host provides.
``kernels.c`` defines no ABI constant of its own: every slot index and
layout constant is handed to it as a ``-DNAME=value`` flag generated
from :func:`repro.native.accel.abi_defines`, so Python is the single
owner and a name C uses that Python did not supply is a compile error.
The kernels draw their random numbers through numpy's own
distribution functions, so the object links the ``libnpyrandom.a`` that
ships inside the installed numpy.  The build artifact is tagged with a
hash of the source, the flags, any arguments ``$CC`` carries *and* the
numpy version, so editing either side — or upgrading the numpy whose
distributions are baked in, or compiling with other options —
never loads a stale object, and the compile is atomic (build to a temp
file, ``os.replace`` into place) so concurrent processes never load a
half-written library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile

import numpy

__all__ = ["NativeBuildError", "load_library", "native_available"]


class NativeBuildError(RuntimeError):
    """The native kernels could not be compiled or loaded."""


_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")
_BUILD_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_build")

#: Entry points exported by kernels.c.
KERNELS = ("noc_span",)

#: Fixed compiler options.  ``-ffp-contract=off``: the reference
#: multiplies ``ipf * phase_mult * flits_per_miss`` unfused, so no
#: target (aarch64, clang) may contract kernel arithmetic into an FMA.
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_lib = None  # the loaded library, or the NativeBuildError that stopped it


def _cc_argv() -> list:
    """``$CC`` split into words (empty when unset)."""
    cc = os.environ.get("CC") or ""
    try:
        return shlex.split(cc)
    except ValueError as exc:
        raise NativeBuildError(f"cannot parse $CC={cc!r}: {exc}") from exc


def _find_compiler():
    """argv prefix of the first usable compiler; ``$CC`` may carry
    arguments (``CC="ccache gcc"``), which are passed through."""
    for argv in (_cc_argv(), ["cc"], ["gcc"], ["clang"]):
        if argv and shutil.which(argv[0]):
            return argv
    return None


def _flags() -> list:
    # Imported here: accel imports this module for load_library.
    from repro.native.accel import abi_defines

    return [f"-D{name}={value}LL" for name, value in abi_defines().items()]


def _so_path(flags) -> str:
    """Where the object for this source, argv and numpy lives.

    The numpy version is part of the tag because numpy's distribution
    code is linked in statically: an object built against another numpy
    could draw differently from the numpy backend.  So are the arguments
    ``$CC`` carries (``CC="cc -fsanitize=undefined"`` is another object
    than ``CC=cc``); the program name is not, so the same flags through
    another compiler or wrapper share the tag.
    """
    with open(_SRC, "rb") as f:
        digest = hashlib.sha256(f.read())
    digest.update(" ".join(
        (*_CFLAGS, *flags, numpy.__version__, *_cc_argv()[1:])
    ).encode())
    return os.path.join(_BUILD_DIR, f"kernels-{digest.hexdigest()[:16]}.so")


def _npyrandom_path() -> str:
    """Where numpy keeps the static library of its distributions."""
    return os.path.join(
        os.path.dirname(numpy.__file__), "random", "lib", "libnpyrandom.a"
    )


def _command(cc, flags, out: str) -> list:
    """The compile-and-link argv that writes the object to *out*."""
    return [*cc, *_CFLAGS, f"-I{numpy.get_include()}", *flags, "-o", out,
            _SRC, _npyrandom_path(), "-lm"]


def _compile(so_path: str, flags) -> None:
    cc = _find_compiler()
    if cc is None:
        raise NativeBuildError(
            "no C compiler found (tried $CC, cc, gcc, clang); "
            "use backend='numpy' instead"
        )
    npyrandom = _npyrandom_path()
    if not os.path.isfile(npyrandom):
        raise NativeBuildError(
            f"this numpy ships no {npyrandom} for the kernels to draw "
            "random numbers through; use backend='numpy' instead"
        )
    os.makedirs(_BUILD_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=_BUILD_DIR, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            _command(cc, flags, tmp), capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"compiling kernels.c with {shlex.join(cc)!r} failed "
                f"(exit {proc.returncode})\n{proc.stderr}"
            )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_and_load():
    flags = _flags()
    so_path = _so_path(flags)
    if not os.path.exists(so_path):
        _compile(so_path, flags)
    try:
        lib = ctypes.CDLL(so_path)
    except OSError:  # corrupt artifact: rebuild once
        os.unlink(so_path)
        _compile(so_path, flags)
        lib = ctypes.CDLL(so_path)
    abi = [
        ctypes.POINTER(ctypes.c_void_p),
        ctypes.POINTER(ctypes.c_longlong),
        ctypes.POINTER(ctypes.c_longlong),
        ctypes.c_longlong,
    ]
    for name in KERNELS:
        fn = getattr(lib, name)
        fn.argtypes = abi
        fn.restype = None
    return lib


def load_library():
    """The compiled kernel library, building it on first call.

    Raises :class:`NativeBuildError` when no compiler is available, the
    build fails, or the build directory cannot be written (any
    ``OSError`` on the way is reported under that name); the library or
    the error is cached for the process lifetime.
    """
    global _lib
    if _lib is None:
        try:
            _lib = _build_and_load()
        except NativeBuildError as exc:
            _lib = exc
        except OSError as exc:
            _lib = NativeBuildError(f"native build failed: {exc}")
    if isinstance(_lib, NativeBuildError):
        raise _lib.with_traceback(None)
    return _lib


def native_available() -> bool:
    """Whether the compiled backend can be built and loaded here."""
    try:
        load_library()
    except NativeBuildError:
        return False
    return True
