"""What `import pascalrow` does to the process: numpy's BLAS threads and the environment.

Each test runs a fresh interpreter, because numpy reads its BLAS settings
once, when it is first imported, and this process has imported it already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pascalrow

TIMEOUT_VARIABLE = "OPENBLAS_THREAD_TIMEOUT"

# Sums the user + system time of every thread but the main one, from
# /proc/self/task/*/stat (fields 14 and 15, counted after the command name).
HELPER_CPU = """
import os, time
time.sleep(0.3)
total = 0
for tid in os.listdir("/proc/self/task"):
    if int(tid) != os.getpid():
        with open(f"/proc/self/task/{tid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
print(total / os.sysconf("SC_CLK_TCK"))
"""

needs_helper_threads = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc and at least 2 CPUs, so that OpenBLAS starts a helper thread",
)


def run_fresh(code, **variables):
    """Run `code` in a fresh interpreter on this source tree and return its stdout.

    The BLAS thread variables are cleared, then `variables` are set.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(pascalrow.__file__).parents[1])}
    for name in (TIMEOUT_VARIABLE, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    env.update(variables)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def helper_cpu_after(statement, **variables):
    """Seconds of CPU the non-main threads spend in the 0.3 s after `statement`."""
    return float(run_fresh(statement + "\n" + HELPER_CPU, **variables))


@needs_helper_threads
def test_import_leaves_blas_threads_idle():
    # With OpenBLAS's default timeout the helper spins for 0.11-0.13 s here.
    assert helper_cpu_after("import pascalrow") < 0.03


@needs_helper_threads
def test_callers_timeout_wins():
    bare = helper_cpu_after("import numpy", **{TIMEOUT_VARIABLE: "28"})
    assert helper_cpu_after("import pascalrow", **{TIMEOUT_VARIABLE: "28"}) >= bare / 3


@pytest.mark.parametrize("variables", [{}, {TIMEOUT_VARIABLE: "28"}], ids=["unset", "caller-set"])
def test_environment_is_unchanged(variables):
    code = (
        "import json, os\n"
        "before = dict(os.environ)\n"
        "import pascalrow\n"
        "print(json.dumps([before == dict(os.environ), os.environ.get('%s')]))" % TIMEOUT_VARIABLE
    )
    assert json.loads(run_fresh(code, **variables)) == [True, variables.get(TIMEOUT_VARIABLE)]


@pytest.mark.parametrize(
    "first, variables",
    [("import numpy", {}), ("", {TIMEOUT_VARIABLE: "28"})],
    ids=["numpy-first", "caller-set"],
)
def test_nothing_is_written_when_the_variable_would_not_apply(first, variables):
    code = (
        "import json, os\n"
        f"{first}\n"
        "writes = []\n"
        "class Recording(type(os.environ)):\n"
        "    def __setitem__(self, key, value):\n"
        "        writes.append(key)\n"
        "        super().__setitem__(key, value)\n"
        "    def __delitem__(self, key):\n"
        "        writes.append(key)\n"
        "        super().__delitem__(key)\n"
        "os.environ.__class__ = Recording\n"
        "import pascalrow\n"
        "print(json.dumps(writes))"
    )
    assert json.loads(run_fresh(code, **variables)) == []
