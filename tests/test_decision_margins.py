"""``scripts/decision_margins.py`` ends, and fails, when one tree's sweep fails."""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "decision_margins.py"


def test_a_failing_tree_ends_the_run(tmp_path):
    # the other checkout's svcim raises on import, while this tree's sweep
    # keeps writing records to its pipe: the script must end both children and
    # exit 1 at once, not wait for a child blocked on a full pipe
    pkg = tmp_path / "src" / "svcim"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('raise RuntimeError("this svcim cannot be imported")\n')
    start = time.monotonic()
    # a session of its own, so that a hang can be ended with its children
    proc = subprocess.Popen([sys.executable, str(SCRIPT), "--seeds", "1", "--against", str(tmp_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("decision_margins.py still ran after 90 s")
    assert proc.returncode == 1, err
    assert out.startswith("a sweep failed or the trees ran different decodes"), out
    assert "this svcim cannot be imported" in err
    assert time.monotonic() - start < 60
