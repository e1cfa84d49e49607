import functools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_networkx():
    # networkx is a test-only dependency (the planarity oracle)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, treeshort; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@functools.cache
def readme_block_outputs():
    """Run every ```python block of README.md once per session, each in a
    fresh interpreter with only src on the path, and map it to its stdout."""
    readme = (SRC.parent / "README.md").read_text()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    outputs = {}
    with tempfile.TemporaryDirectory() as cwd:
        for code in re.findall(r"```python\n(.*?)```", readme, re.S):
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outputs[code] = proc.stdout
    return outputs


def readme_library_block():
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return code


def test_readme_python_blocks_run():
    """Every README Python block runs, so an API change cannot leave an
    example broken; the "Library use" block is among them."""
    assert readme_library_block() in readme_block_outputs()
