"""The package names the benchmark's tracer wraps.

``fluxbench/tracing.py`` swaps module globals of the package (for example
``transient.solve_tridiagonal``) for timed wrappers and only warns about a
name that is gone, so a renamed global would read as a layer that costs
nothing. This test names the missing global instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "fluxbench" / "tracing.py"


@pytest.mark.skipif(not TRACING.exists(), reason="no fluxbench/ next to the tests")
def test_every_traced_name_exists_in_the_package():
    spec = importlib.util.spec_from_file_location("fluxbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [f"{module.__name__}.{name}" for module, name in tracing.WRAPPED
               if not callable(getattr(module, name, None))]
    assert missing == []
