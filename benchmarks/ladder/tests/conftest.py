"""The ladder's modules are flat files beside ``run.py``; put that
directory on the path. Run with the program importable, as tier-1 is:

    PYTHONPATH=src python -m pytest benchmarks/ladder/tests -q
"""

import pathlib
import sys

LADDER = pathlib.Path(__file__).resolve().parent.parent
if str(LADDER) not in sys.path:
    sys.path.insert(0, str(LADDER))
