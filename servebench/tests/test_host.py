import json
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Starts the multiprocessing resource tracker, a plain child and a child
# that leaves an orphan behind, then stops them all the way run.py does.
_SCRIPT = r"""
import json, os, subprocess, sys, time
from multiprocessing import resource_tracker, shared_memory
from servebench import host

host.adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
tracker = resource_tracker._resource_tracker._pid
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
leaver = subprocess.run(
    [sys.executable, "-c",
     "import subprocess, sys; "
     "print(subprocess.Popen([sys.executable, '-c', "
     "'import time; time.sleep(60)'], stdout=subprocess.DEVNULL).pid)"],
    stdout=subprocess.PIPE, text=True, check=True)
orphan = int(leaver.stdout)
before = sorted(host.children(os.getpid()))
host.stop_children()
after = host.children(os.getpid())
print(json.dumps({"tracker": tracker, "sleeper": sleeper.pid,
                  "orphan": orphan, "before": before, "after": after}))
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_stop_children_stops_and_reaps_every_descendant():
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=_ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    # The orphan was handed to the script, not to init.
    assert {seen["tracker"], seen["sleeper"], seen["orphan"]} <= set(seen["before"])
    assert seen["after"] == []
    for name in ("tracker", "sleeper", "orphan"):
        assert not _alive(seen[name]), name
