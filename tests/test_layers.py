"""The layer order of the package: importing a module loads the modules below
it and nothing above, since the package itself re-exports nothing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrelent

#: each module with the qrelent modules a fresh import of it loads, itself included
LAYERS = {
    "linalg": ("errors", "linalg"),
    "states": ("errors", "linalg", "states"),
    "quadrature": ("errors", "linalg", "quadrature"),
    "entropy": ("errors", "linalg", "states", "entropy"),
    "bounds": ("errors", "linalg", "states", "quadrature", "entropy", "bounds"),
    "harness": ("errors", "linalg", "states", "quadrature", "entropy", "bounds", "harness"),
}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_import_loads_only_lower_layers(module):
    script = f"""if True:
        import json, sys
        import qrelent.{module}
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("qrelent."))))
    """
    src = str(Path(qrelent.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], check=False, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(f"qrelent.{m}" for m in LAYERS[module])
