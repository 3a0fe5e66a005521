"""A new interpreter that imports the spherefall under test, for what one process cannot show."""

import os
import subprocess
import sys

import spherefall


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code, with args as sys.argv[1:], in a new interpreter importing this spherefall."""
    src = os.path.dirname(os.path.dirname(spherefall.__file__))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
