"""Print the SHA-256 of every artifact a fixed set of short runs writes.

Run it against two source trees and diff the outputs; an empty diff means
the two trees write byte-identical CSV, JSON and SVG files:

    PYTHONPATH=src python3 tools/artifact_hashes.py > after.txt

The set: the nine presets cut to t_end 0.02 at observer strides 1, 7 and
1000 (presets with snapshots take them at 0, 0.005 and 0.02); entropy-C on
the implicit scheme at dt 1e-3 and strides 1 and 3; the mass evolution of
mass1 and mass2 at stride 1; a three-member gamma sweep. Only the public
``run``, ``mass_evolution`` and ``gamma_sweep`` are used. Lines read
``<sha256>  <path>``, paths relative to a temporary output directory.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

from fokker_flux.experiments import PRESETS, gamma_sweep, mass_evolution, preset_config, run

SHORT = {"t_end": 0.02}
SNAPSHOTS = [0.0, 0.005, 0.02]


def write_all(root: Path) -> None:
    for name, preset in PRESETS.items():
        for stride in (1, 7, 1000):
            overrides = dict(SHORT, observe_every=stride)
            if "snapshot_times" in preset:
                overrides["snapshot_times"] = SNAPSHOTS
            run(preset_config(name, overrides), out_dir=str(root / f"{name}-{stride}"))
    for stride in (1, 3):
        implicit = dict(scheme="implicit-entropy", dt=1e-3, t_end=0.05, observe_every=stride)
        run(preset_config("entropy-C", implicit), out_dir=str(root / f"implicit-C-{stride}"))
    for name in ("mass1", "mass2"):
        mass_evolution(name, out_dir=str(root / f"evolution-{name}"),
                       overrides=dict(SHORT, observe_every=1))
    base = preset_config("entropy-A", {"n": 60, "dt": 5e-5, "t_end": 1.0, "observe_every": 200})
    gamma_sweep(base, [0.0, 0.5, 1.0], out_dir=str(root / "sweep"))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_all(root)
        for path in sorted(root.rglob("*")):
            if path.suffix in (".csv", ".json", ".svg"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(root)}")


if __name__ == "__main__":
    main()
