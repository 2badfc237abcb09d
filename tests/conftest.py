"""Import m4kit from this checkout's src/, in the test process and in the
interpreters that some tests start, whether or not PYTHONPATH is set."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
