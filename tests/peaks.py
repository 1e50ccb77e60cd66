"""Peak resident size of code run in a fresh interpreter, for the tests
that hold a command's memory to a bound or to the peak of another size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tchlab

# VmHWM is Linux's peak resident size of a process
needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                 reason="reads Linux's VmHWM")


def fresh_process_run(body):
    """The words ``body`` prints, run in a fresh process that then prints
    its own peak resident size (VmHWM, in kB; ru_maxrss would also count
    this process's size at the fork)."""
    src = str(Path(tchlab.__file__).resolve().parent.parent)
    code = body + (
        "status = open('/proc/self/status').read().split('VmHWM:')[1].split()[0]\n"
        "print(status)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()
