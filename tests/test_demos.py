"""Every demo script runs to completion against the library in ``src`` and
prints exactly its recorded output.

``golden/demos/<script stem>.txt`` holds each demo's stdout.  Regenerate the
files with ``PYTHONPATH=src:tests python tests/test_demos.py`` only when a
change to the output is intended.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def _run(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    done = _run(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{script.stem}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for script in DEMOS:
        done = _run(script)
        if done.returncode != 0:
            sys.exit(f"{script.name} failed:\n{done.stderr}")
        (GOLDEN / f"{script.stem}.txt").write_text(done.stdout)
    print(f"wrote {len(DEMOS)} demo outputs to {GOLDEN}", file=sys.stderr)
