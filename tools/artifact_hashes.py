"""Print the SHA-256 of every artifact a fixed set of short runs writes.

Run it against two source trees and diff the outputs; an empty diff means
the two trees write byte-identical CSV, JSON and SVG files:

    PYTHONPATH=src python3 tools/artifact_hashes.py > after.txt

With ``--out DIR`` the artifacts are written to DIR and kept, so that two
trees can be compared value by value; ``--compare OLD NEW`` prints, for
every CSV or JSON file whose bytes differ between two such directories,
the largest relative change of each column (CSV) or numeric field (JSON):

    PYTHONPATH=src python3 tools/artifact_hashes.py --out new > after.txt
    python3 tools/artifact_hashes.py --compare old new --max-rel 5e-14

With ``--max-rel R`` the comparison exits 1 when a file is on one side
only, a file differs in anything but its numbers (an SVG file in any
byte), or a number moves by more than R relative.

The set: the nine presets cut to t_end 0.02 at observer strides 1, 7 and
1000 (presets with snapshots take them at 0, 0.005 and 0.02); entropy-C on
the implicit scheme at dt 1e-3 and strides 1 and 3, and evolution-C on it
at stride 3 with those snapshots; evolution-A at stride 7 with snapshots
at 0, 0.0049, 0.005 and 0.02 (several events off the stride in one
observer block); entropy-A, -B and -C
on the tabulated potential V = sin(3x) at n 200, t_end 0.02 and stride 7;
entropy-A and -B on the coarsest grids, n 3, 4 and 5, at t_end 0.02 and
stride 7 (the step matrix of models A and B is read off three combs of
ones at every third node, and these grids have the fewest); the mass
evolution of mass1 and mass2 at stride 1; a three-member gamma
sweep. Then the parse paths, each at t_end 0.02 and stride 7: ``dt:
"auto"`` (entropy-A, and evolution-C with those snapshots), a tabulated
initial field (entropy-B at n 50), ``{"kind": "affine"}`` with no
coefficients and with ``a`` only, ``potential: "zero"`` (all entropy-A) and
entropy-A with no ``initial`` key. Only the public ``config_from_dict``,
``run``, ``mass_evolution`` and ``gamma_sweep`` are used. Lines read
``<sha256>  <path>``, paths relative to the output directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

SHORT = {"t_end": 0.02}
SNAPSHOTS = [0.0, 0.005, 0.02]


def write_all(root: Path) -> None:
    from fokker_flux.experiments import (
        PRESETS, config_from_dict, gamma_sweep, mass_evolution, preset_config, run,
    )

    for name, preset in PRESETS.items():
        for stride in (1, 7, 1000):
            overrides = dict(SHORT, observe_every=stride)
            if "snapshot_times" in preset:
                overrides["snapshot_times"] = SNAPSHOTS
            run(preset_config(name, overrides), out_dir=str(root / f"{name}-{stride}"))
    for stride in (1, 3):
        implicit = dict(scheme="implicit-entropy", dt=1e-3, t_end=0.05, observe_every=stride)
        run(preset_config("entropy-C", implicit), out_dir=str(root / f"implicit-C-{stride}"))
    implicit = dict(SHORT, scheme="implicit-entropy", dt=1e-3, observe_every=3,
                    snapshot_times=SNAPSHOTS)
    run(preset_config("evolution-C", implicit), out_dir=str(root / "implicit-evolution-C"))
    events = dict(SHORT, observe_every=7, snapshot_times=[0.0, 0.0049, 0.005, 0.02])
    run(preset_config("evolution-A", events), out_dir=str(root / "events-evolution-A"))
    sine = {"kind": "tabulated", "values": [math.sin(3.0 * i / 199) for i in range(200)]}
    tabulated = dict(SHORT, n=200, observe_every=7, potential=sine)
    for name in ("entropy-A", "entropy-B", "entropy-C"):
        run(preset_config(name, tabulated), out_dir=str(root / f"tabulated-{name}"))
    for name in ("entropy-A", "entropy-B"):
        for n in (3, 4, 5):
            coarse = dict(SHORT, n=n, observe_every=7)
            run(preset_config(name, coarse), out_dir=str(root / f"coarse-{name}-{n}"))
    for name in ("mass1", "mass2"):
        mass_evolution(name, out_dir=str(root / f"evolution-{name}"),
                       overrides=dict(SHORT, observe_every=1))
    base = preset_config("entropy-A", {"n": 60, "dt": 5e-5, "t_end": 1.0, "observe_every": 200})
    gamma_sweep(base, [0.0, 0.5, 1.0], out_dir=str(root / "sweep"))

    parsed = dict(SHORT, observe_every=7)
    run(preset_config("entropy-A", dict(parsed, dt="auto")), out_dir=str(root / "auto-dt-A"))
    run(preset_config("evolution-C", dict(parsed, dt="auto", snapshot_times=SNAPSHOTS)),
        out_dir=str(root / "auto-dt-evolution-C"))
    table = {"kind": "tabulated", "values": [1.0 + 0.5 * math.cos(i / 7) for i in range(50)]}
    run(preset_config("entropy-B", dict(parsed, n=50, initial=table)),
        out_dir=str(root / "tabulated-initial-B"))
    for label, change in (("affine-default", {"initial": {"kind": "affine"}}),
                          ("affine-a", {"initial": {"kind": "affine", "a": 0.3}}),
                          ("zero-potential", {"potential": "zero"})):
        run(preset_config("entropy-A", dict(parsed, **change)), out_dir=str(root / label))
    bare = {k: v for k, v in PRESETS["entropy-A"].items() if k != "initial"}
    run(config_from_dict(dict(bare, **parsed)), out_dir=str(root / "no-initial"))


def print_hashes(root: Path) -> None:
    for path in sorted(root.rglob("*")):
        if path.suffix in (".csv", ".json", ".svg"):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root)}")


def _fields(path: Path) -> tuple[dict, list]:
    """Numeric columns of a CSV file, or numeric fields of a JSON file, by
    name, and every other cell or field (the text) in order."""
    numeric, text = {}, []
    if path.suffix == ".json":
        def walk(value, name):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(item, f"{name}.{key}" if name else key)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    walk(item, f"{name}[{i}]")
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                numeric[name] = [float(value)]
            else:
                text.append((name, value))

        walk(json.loads(path.read_text()), "")
        return numeric, text
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    text.append(header)
    for i, name in enumerate(header):
        column = numeric[name] = []
        for j, row in enumerate(rows):
            try:
                column.append(float(row[i]))
            except ValueError:  # a text cell: NaN keeps the rows aligned
                column.append(math.nan)
                text.append((name, j, row[i]))
    return numeric, text


def _relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    change = abs(new - old) / max(abs(old), abs(new))
    return change if math.isfinite(change) else math.inf  # a NaN or an infinity on one side


def compare(old_root: Path, new_root: Path, max_rel: float = math.inf) -> bool:
    """Print the largest relative change per numeric column or field of every
    CSV / JSON file whose bytes differ; True when no file is missing on
    either side, none differs in its text (SVG files: in any byte), and no
    change exceeds ``max_rel``."""
    names = {
        path.relative_to(root)
        for root in (old_root, new_root)
        for path in root.rglob("*")
        if path.suffix in (".csv", ".json", ".svg")
    }
    ok = True
    for name in sorted(names):
        old, new = old_root / name, new_root / name
        if not (old.exists() and new.exists()):
            print(f"{name}: missing in {new_root if old.exists() else old_root}")
            ok = False
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        if name.suffix == ".svg":
            print(f"{name}: bytes differ")
            ok = False
            continue
        (before, old_text), (after, new_text) = _fields(old), _fields(new)
        if old_text != new_text:
            print(f"{name}: non-numeric text differs")
            ok = False
        for column in [*before, *(c for c in after if c not in before)]:
            a, b = before.get(column), after.get(column)
            if a is None or b is None or len(a) != len(b):
                print(f"{name} {column}: present or sized differently")
                ok = False
                continue
            worst = max((_relative_change(x, y) for x, y in zip(a, b)), default=0.0)
            if worst:
                print(f"{name} {column}: {worst:.3e}")
                ok = ok and worst <= max_rel
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the artifacts here and keep them")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two directories written with --out")
    parser.add_argument("--max-rel", type=float, metavar="R",
                        help="with --compare, exit 1 when a file is missing or differs "
                        "in its text, or a numeric value moves by more than R relative")
    args = parser.parse_args()
    if args.compare:
        ok = compare(*args.compare, max_rel=math.inf if args.max_rel is None else args.max_rel)
        if args.max_rel is not None and not ok:
            sys.exit(1)
    elif args.out:
        write_all(args.out)
        print_hashes(args.out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            write_all(Path(tmp))
            print_hashes(Path(tmp))


if __name__ == "__main__":
    main()
