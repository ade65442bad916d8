"""The README's library quick start, run as a user would run it."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_prints_documented_lines():
    readme = (ROOT / "README.md").read_text()
    block, = re.findall(r"```python\n(.*?)```", readme, re.S)
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300, check=True).stdout
    assert out.splitlines() == ["True", "True", "True", "4 1 True"]
