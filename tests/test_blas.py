"""The one-thread OpenBLAS scope: both bundled libraries are found, and
their thread counts always come back."""

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
