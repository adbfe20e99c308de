"""Importing the package loads numpy's OpenBLAS on one thread, unless the
caller chose a count or loaded numpy first, and leaves the environment as
it found it.

Each case runs a fresh interpreter without the three thread variables
OpenBLAS reads and counts the process's threads (``/proc/self/status``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
REPORT = (
    "import json, os, re; "
    "print(re.search(r'Threads:\\s*(\\d+)', open('/proc/self/status').read()).group(1)); "
    f"print(json.dumps({{name: os.environ[name] for name in {THREAD_VARIABLES} "
    "if name in os.environ}))"
)


def threads(imports: str, **env: str) -> tuple[int, dict]:
    """Thread count after ``imports``, and the thread variables that are set."""
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    path = os.pathsep.join(filter(None, (SRC, clean.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", f"{imports}; {REPORT}"],
        env={**clean, "PYTHONPATH": path, **env},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return int(out[0]), json.loads(out[1])


pytestmark = [
    pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status"),
    pytest.mark.skipif(
        sys.platform.startswith("linux")
        and threads("import numpy", OPENBLAS_NUM_THREADS="2")[0] != 2,
        reason="numpy's BLAS does not start OpenBLAS threads here",
    ),
]


def test_import_loads_numpy_on_one_thread_and_unsets_the_variable():
    assert threads("import fokker_flux") == (1, {})


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_chosen_thread_count_is_kept(name):
    assert threads("import fokker_flux", **{name: "2"}) == (2, {name: "2"})


def test_numpy_loaded_first_keeps_its_threads():
    assert threads("import numpy; import fokker_flux") == threads("import numpy")
