"""The quick examples run to completion against this tree's sources.

Each example runs in a child interpreter with the tree's ``src`` first
on ``PYTHONPATH``, so a renamed or deleted public name breaks this test
instead of a reader's first run.  ``fleet_sizing.py``,
``privacy_tradeoff.py`` and ``shanghai_workday.py`` take 7-53 s each and
are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

QUICK_EXAMPLES = [
    ["streaming_estimation.py"],
    ["metropolitan_sharding.py", "--small"],
    ["quickstart.py"],
    ["incident_detection.py"],
    ["trip_planning.py"],
    ["parameter_tuning.py"],
]


@pytest.mark.parametrize("argv", QUICK_EXAMPLES, ids=lambda argv: argv[0])
def test_example_runs(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / argv[0]), *argv[1:]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
