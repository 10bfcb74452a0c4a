"""Each script under demos/ runs to completion against the package in src/ and prints
the bytes pinned for it here; README's library quick start prints what its comments say."""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout.  A change that moves a printed value on purpose updates it.
STDOUT_DIGESTS = {
    "boost_wraparound.py": "9413c3c24be60af12a870e76e1ac35bb3ee51801a6019f03050ddaec731cbcc6",
    "cartan_factors.py": "fd54f186e4247c46fe822fa6643defe9dd0459ddbd2c52aac347e57c7821bac0",
    "classify_generator_sets.py":
        "e1657cb6283a6a78c06bad9d3e5c88a904eecc9a6b25cf543d4626642b45bc60",
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


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    classified, lam = out.getvalue().splitlines()
    assert comments[0] == classified == "Kinematical Lorentz 1.0"
    assert comments[1].startswith("4.0 up to rounding")
    assert abs(float(lam) - 4.0) <= 4 * math.ulp(4.0)
