"""Pinned output numbers of shipped configs and checks, and the helper that writes them.

pins.json holds the exact CSV cells of a few outputs that tests already
compute: verify --suite all at seed 0, probe_mlp.cfg's powerlaw.csv rows at
seed 0, test_c12's summary and train logs, and train_blobs.cfg at seed 0. It
records the numpy version, BLAS build and numpy SIMD extensions it was
written under. Under the same ones the cells must match byte for byte; under
others they are compared to 1e-12 relative, and a failure says so. A changed
number is a changed output: regenerate the file only for a change that is
meant to move it, and name the numbers that moved.

Regenerate with `python tests/pins.py`, which runs the pinning tests and
writes what they pass to check.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
PINNING_TESTS = (
    "test_harness.py::TestVerifySuites::test_all_equals_the_single_suites_in_order",
    "test_acceptance.py::test_c02_power_law_probe",
    "test_acceptance.py::test_c12_determinism",
    "test_acceptance.py::test_train_blobs_seed_0",
)
RTOL = 1e-12

_recording: dict | None = None  # set by main(): check records rows instead of comparing


def environment() -> dict:
    """The builds that decide floating-point results: numpy's, its BLAS's, its SIMD's."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
        "simd": config["SIMD Extensions"]["found"],
    }


def _cell(value) -> str:
    """A CSV cell as write_csv writes it: a float by its repr, anything else by str."""
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def _rel_diff(pinned: str, got: str) -> float:
    """The relative difference of two numeric cells (0 for two NaNs); inf for other cells."""
    try:
        a, b = float(pinned), float(got)
    except ValueError:
        return 0.0 if pinned == got else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def check(name: str, rows) -> None:
    """Assert that rows, each a sequence of CSV cells, are the pinned rows of name.

    On a mismatch the message lists each differing row and the largest
    relative difference over all cells.
    """
    got = [[_cell(c) for c in row] for row in rows]
    if _recording is not None:
        _recording[name] = got
        return
    fixture = json.loads(PINS_PATH.read_text())
    pinned = fixture["pins"][name]
    env = environment()
    exact = env == fixture["environment"]
    bad, worst = [], 0.0
    for i in range(max(len(pinned), len(got))):
        want = pinned[i] if i < len(pinned) else None
        have = got[i] if i < len(got) else None
        diff = (math.inf if want is None or have is None or len(want) != len(have)
                else max((_rel_diff(w, h) for w, h in zip(want, have)), default=0.0))
        worst = max(worst, diff)
        if (want != have) if exact else diff > RTOL:
            bad.append(f"  row {i}: pinned {want}\n         got    {have}")
    mode = ("byte for byte" if exact else
            f"to {RTOL:g} relative, as pinned under {fixture['environment']} and run under {env}")
    assert not bad, (f"{name}: {len(bad)} row(s) differ from {PINS_PATH.name}, compared {mode}; "
                     f"largest relative difference {worst:.3g}\n" + "\n".join(bad))


def _dumps(fixture: dict) -> str:
    """fixture as JSON with one pinned row per line."""
    pins = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"   {json.dumps(row)}" for row in rows) + "\n  ]"
        for name, rows in fixture["pins"].items()
    )
    return (f'{{\n "environment": {json.dumps(fixture["environment"])},\n'
            f' "pins": {{\n{pins}\n }}\n}}\n')


def main() -> int:
    """Run the pinning tests with check recording, and write pins.json if they pass."""
    import pytest

    import pins  # the module the tests import, not this __main__ copy

    pins._recording = {}
    here = Path(__file__).resolve().parent
    code = pytest.main(["-q", "-p", "no:cacheprovider", *(str(here / t) for t in PINNING_TESTS)])
    if code != 0:
        return int(code)
    fixture = {"environment": environment(), "pins": dict(sorted(pins._recording.items()))}
    PINS_PATH.write_text(_dumps(fixture))
    print(f"wrote {len(fixture['pins'])} pins to {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
