import os
import subprocess
import sys
from pathlib import Path

import nmpkit


def test_import_does_not_load_scipy():
    # scipy.sparse.csgraph alone adds about 32 MB resident to a fresh
    # interpreter; nmpkit needs only numpy.
    src = str(Path(nmpkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, nmpkit; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"
