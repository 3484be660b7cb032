import os
import subprocess
import sys
from pathlib import Path

import nmpkit


def modules_after_import(*packages):
    """The modules of `packages` that `import nmpkit` loads in a fresh
    interpreter."""
    src = str(Path(nmpkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, nmpkit; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return out.stdout.strip()


def test_import_does_not_load_scipy():
    # scipy.sparse.csgraph alone adds about 32 MB resident to a fresh
    # interpreter; nmpkit needs only numpy.
    assert modules_after_import("scipy") == "[]"


def test_import_does_not_load_process_pools():
    # The sweep forks its workers with os.fork; a pool module at import
    # would only add to every workload's set-up time.
    assert modules_after_import("multiprocessing", "concurrent") == "[]"
