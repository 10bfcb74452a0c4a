"""Each script under demos/ runs to completion against the package in src/ and prints
the bytes pinned for it here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout.  A change that moves a printed value on purpose updates it.
STDOUT_DIGESTS = {
    "boost_wraparound.py": "040e9efe20420b18af8d89f384ce9011f1f0f25bed9a6ded0ac5735de58acedf",
    "cartan_factors.py": "9635e7fa06e001fcbec3d66003b41aaddf92a3b75431c5b8a39e11bffafe78f4",
    "classify_generator_sets.py":
        "ccde86919556441cd4ecd7aeb304b2276a63394c8df092e564574160f1f7529e",
    "five_groups_tour.py": "d93e578aba18c30a3105676797abc215c8cf99ca6ada5634e8bf60fc8a7d9ad2",
    "worldlines_and_speed.py": "cdeec9be7471ee0d54bdc1f5a04a4eebd127885b96e2413f1fce43b62aa2c179",
}


def test_there_are_demos():
    assert len(DEMOS) >= 5
    assert sorted(STDOUT_DIGESTS) == [path.name for path in DEMOS]  # each one pinned


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Warnings are errors, as they are for every other test.
    proc = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[script.name], \
        proc.stdout
