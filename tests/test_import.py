"""Importing the package loads BLAS with one thread unless the caller chose a count."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rindler_spin

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="thread count read from /proc/self/task")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
COUNT_THREADS = "import os; print(len(os.listdir('/proc/self/task')))"
READ_ENV = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run(argv, **extra):
    """Run the interpreter with the thread variables stripped and ``extra`` set; its stdout."""
    src = str(Path(rindler_spin.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env.update(extra)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _after(imports, **extra):
    """(thread count, OPENBLAS_NUM_THREADS) after running ``imports``."""
    threads, value = _run(["-c", f"{imports}; {COUNT_THREADS}; {READ_ENV}"],
                          **extra).decode().split()
    return int(threads), value


def test_import_loads_blas_with_one_thread_and_restores_the_environment():
    assert _after("import rindler_spin") == (1, "None")


@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS starts no worker on one CPU")
def test_a_thread_count_the_caller_sets_wins():
    threads, value = _after("import rindler_spin", OPENBLAS_NUM_THREADS="2")
    assert threads > 1
    assert value == "2"


def test_an_already_loaded_numpy_is_left_alone():
    # rindler_spin adds only the threads its own imports (scipy's BLAS) start
    ours, _ = _after("import numpy, rindler_spin")
    theirs, _ = _after("import numpy, scipy.integrate")
    assert ours == theirs


def test_curve_bytes_do_not_depend_on_the_blas_thread_count():
    argv = ["-m", "rindler_spin.cli", "curve", "--alpha", "1", "--tau-grid", "0:5:120"]
    assert _run(argv) == _run(argv, OPENBLAS_NUM_THREADS="2")
