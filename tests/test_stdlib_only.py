"""The runtime imports only the standard library.

In an isolated interpreter (``python -I``), every top-level module that
importing ``shufflecover`` and ``shufflecover.cli`` adds to ``sys.modules``
must be in ``sys.stdlib_module_names``.  Modules already loaded before the
import (site ``.pth`` hooks may preload some) are not counted.  ``-I``
ignores ``PYTHONDONTWRITEBYTECODE``, so ``-B`` keeps the probe from
writing bytecode into ``src/``.

Runs under pytest, or as a plain script: ``python tests/test_stdlib_only.py``.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import shufflecover, shufflecover.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names) - {"shufflecover"})))
"""


def test_runtime_imports_only_stdlib():
    probe = subprocess.run(
        [sys.executable, "-I", "-B", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.split() == [], f"non-stdlib modules imported: {probe.stdout.strip()}"


if __name__ == "__main__":
    test_runtime_imports_only_stdlib()
    print("ok: the runtime imports only the standard library")
