"""Config fuzzing: any configuration is either a ConfigError at parse time
or a run that ends with exit code 0, 2 or 3, never a traceback.

Each example starts from a small valid configuration of one model and
replaces or deletes one or two fields. The pool of values holds wrong JSON
types, bools, null, non-finite and huge numbers, unknown kinds and a few
valid alternatives; none of them makes a run longer than a few thousand
steps on ten nodes.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from fokker_flux import ConfigError, config_from_dict  # noqa: E402
from fokker_flux.cli import main  # noqa: E402

SMALL = {
    "A": {"model": "A", "alpha": 1.0, "beta": 0.9, "n": 10, "dt": 1e-4, "t_end": 0.01,
          "observe_every": 7},
    "B": {"model": "B", "alpha": 1.0, "beta": 0.9, "n": 10, "dt": 1e-4, "t_end": 0.01,
          "observe_every": 7},
    "C": {"model": "C", "alpha": 1.0, "beta": 0.9, "n": 10, "dt": 1e-4, "t_end": 0.01,
          "observe_every": 7, "initial": "parabola"},
}
FIELDS = (
    "model", "alpha", "beta", "gamma", "potential", "initial", "n", "dt", "t_end",
    "snapshot_times", "observe_every", "scheme", "outputs", "emit", "typo",
)
DELETE = object()  # drop the field instead of replacing it
VALUES = (
    DELETE, None, True, False, "x", "auto", [], [1.0], ["x"], {}, {"kind": "x"},
    math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, 0.5, 3, 1e-3, 1e308,
    2**62, 2**63, 10**30, 10**400,
    "A", "C", "quartic", "zero", "scaled-linear", "tabulated", "implicit-entropy",
    "parabola", "mass2", {"kind": "tabulated"}, {"kind": "tabulated", "values": [0.5] * 10},
    {"kind": "tabulated", "values": [math.nan] * 10}, {"kind": "affine", "a": True},
    [0.0, 0.005], [0.02], [math.nan], ["summary", "mass"], ["plots"],
)

edits = st.lists(st.tuples(st.sampled_from(FIELDS), st.sampled_from(VALUES)),
                 min_size=1, max_size=2)


def edited(model: str, changes) -> dict:
    data = dict(SMALL[model])
    for name, value in changes:
        if value is DELETE:
            data.pop(name, None)
        else:
            data[name] = value
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(SMALL)), edits)
@example("A", [("observe_every", 2**63)])
@example("A", [("n", 2**62)])
@example("A", [("n", 10**30)])
@example("C", [("scheme", "implicit-entropy"), ("dt", 1e308)])
@example("A", [("potential", "tabulated")])
def test_every_config_is_a_config_error_or_a_clean_exit(model, changes):
    data = edited(model, changes)
    try:
        config_from_dict(data)
    except ConfigError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")]) in (0, 2, 3)
