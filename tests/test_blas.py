"""The one-thread OpenBLAS scope: both bundled libraries are found, and
their thread counts always come back."""

import json

import pytest

from modulon._blas import SERIAL_MAX_N, serial, thread_controls


def counts():
    return [get() for _, get, _ in thread_controls()]


def test_both_openblas_libraries_found():
    # a numpy or scipy upgrade that renames the symbols must fail here, not
    # silently run the dense kernels on the default thread count
    assert [pkg for pkg, _, _ in thread_controls()] == ["numpy", "scipy"]


def test_serial_pins_small_sizes_only(two_threads):
    with serial(65):
        assert counts() == [1, 1]
    assert counts() == [2, 2]
    with serial(SERIAL_MAX_N):
        assert counts() == [1, 1]
    with serial(1025):
        assert counts() == [2, 2]
    assert counts() == [2, 2]


def test_serial_restores_after_an_exception(two_threads):
    with pytest.raises(RuntimeError):
        with serial(65):
            raise RuntimeError("inside the scope")
    assert counts() == [2, 2]


def test_nested_scopes_restore_their_entry_counts(two_threads):
    with serial(65):
        with serial(129):
            assert counts() == [1, 1]
        assert counts() == [1, 1]
        with serial(1025):
            assert counts() == [1, 1]
        assert counts() == [1, 1]
    assert counts() == [2, 2]


def test_thread_controls_import_no_scipy(fresh_python):
    assert json.loads(fresh_python("""
import json, sys
from modulon._blas import thread_controls
pkgs = [pkg for pkg, _, _ in thread_controls()]
print(json.dumps([pkgs, sorted(m for m in sys.modules
                               if m.split(".")[0] == "scipy")]))
""")) == [["numpy", "scipy"], []]


def test_pinning_holds_for_scipy_imported_inside_the_scope(fresh_python):
    # scipy.linalg loads in the scope, after its OpenBLAS was pinned by
    # path, and runs on that one library at the pinned count
    before, loaded, inside, after, libs = json.loads(fresh_python("""
import json, os, sys
from modulon import _blas
get, set_ = {pkg: (g, s) for pkg, g, s in _blas.thread_controls()}["scipy"]
set_(2)
before = "scipy.linalg" in sys.modules
with _blas.serial(65):
    import scipy.linalg
    scipy.linalg.expm(0.01 * scipy.linalg.hilbert(65))
    loaded, inside = "scipy.linalg" in sys.modules, get()
after = get()
libs = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "scipy.libs" in line and "openblas" in line})
print(json.dumps([before, loaded, inside, after, libs]))
"""))
    assert (before, loaded, inside, after) == (False, True, 1, 2)
    if libs is not None:
        assert len(libs) == 1
