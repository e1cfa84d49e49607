import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_networkx():
    # networkx is a test-only dependency (the planarity oracle)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, treeshort; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
