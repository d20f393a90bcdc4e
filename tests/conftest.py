"""Test-run setup: interpreters that tests start import this checkout's ``segmt``.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on the test process's own
path; exporting it too lets a bare ``python -m pytest`` run the tests that
start ``python -m segmt`` in a subprocess.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
