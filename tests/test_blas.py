import pytest

from fokker_flux import execute, preset_config
from fokker_flux.blas import serial_blas, thread_controls

controls = thread_controls()
needs_openblas = pytest.mark.skipif(controls is None, reason="numpy does not use OpenBLAS here")


@needs_openblas
def test_serial_blas_sets_one_thread_and_restores():
    get, put = controls
    previous = get()
    put(2)
    try:
        with serial_blas():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError):
            with serial_blas():
                raise RuntimeError("inside")
        assert get() == 2
    finally:
        put(previous)


@needs_openblas
def test_serial_blas_leaves_a_single_thread_untouched():
    get, put = controls
    previous = get()
    put(1)
    try:
        with serial_blas():
            assert get() == 1
        assert get() == 1
    finally:
        put(previous)


def test_serial_blas_runs_the_block_without_openblas(monkeypatch):
    monkeypatch.setattr("fokker_flux.blas.thread_controls", lambda: None)
    ran = []
    with serial_blas():
        ran.append(True)
    assert ran == [True]


@needs_openblas
def test_propagator_run_restores_the_thread_count():
    get, put = controls
    previous = get()
    put(2)
    try:
        execute(preset_config("entropy-A", {"t_end": 0.01, "observe_every": 100}))
        assert get() == 2
    finally:
        put(previous)
