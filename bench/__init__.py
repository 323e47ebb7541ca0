"""The repo's one end-to-end benchmark: statements in, rows out, through
the query server, on a seeded bibliographic catalog.  See README.md.

``python -m bench.run`` is run from the repository root; the engine under
test lives in ``src/`` next to this package, so it is put on the path here
and no ``PYTHONPATH`` is needed.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
