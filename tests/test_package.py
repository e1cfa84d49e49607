import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_networkx():
    # networkx is a test-only dependency (the planarity oracle)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, treeshort; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_readme_python_blocks_run(tmp_path):
    """Every ```python block of README.md runs in a fresh interpreter with
    only src on the path, so an API change cannot leave an example broken."""
    readme = (SRC.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for code in blocks:
        subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True)
