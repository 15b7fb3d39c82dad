"""First build of the compiled list-walk kernel.

The library compiles at first use into a per-user cache shared by
every process (fleet workers, pipeline workers).  Processes building
into an empty cache at the same time must not read or truncate each
other's compiler input: each has to end up with the fast path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.kernels import cnative

pytestmark = pytest.mark.skipif(
    cnative._compiler() is None
    or bool(os.environ.get("REPRO_KERNELS_NO_CNATIVE")),
    reason="no C compiler, or the compiled kernel is switched off")

_PROBE = ("import sys\n"
          "from repro.core.kernels import cnative\n"
          "sys.exit(0 if cnative.available() else 1)\n")


def test_concurrent_first_builds_both_load(tmp_path):
    env = dict(os.environ)
    env["XDG_CACHE_HOME"] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cnative.__file__).parents[3])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    procs = [subprocess.Popen([sys.executable, "-c", _PROBE], env=env)
             for _ in range(2)]
    codes = [p.wait(timeout=300) for p in procs]
    assert codes == [0, 0]
    # only the finished library is left behind, no per-process scratch
    built = sorted(p.name for p in (tmp_path / "repro-kernels").iterdir())
    assert len(built) == 1 and built[0].endswith(".so"), built
