"""Let the processes the tests start import twobox from this checkout's ``src/``.

``pythonpath`` in pyproject.toml puts ``src/`` on the test process's own
path only; a child such as ``python -m twobox.cli`` reads PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
