"""The README's library-use example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_block_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", block], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
