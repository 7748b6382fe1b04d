"""Self-tests of the benchmark; not part of tier-1 ``testpaths``.

    python -m pytest benchmarks/e2e/tests
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
for path in (REPO / "src", E2E):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
