"""What the tier-1 suite shares across its files.

A test whose subject is a fresh interpreter (the import check, the
benchmark's tracer) declares its script with the ``fresh_python`` marker
and reads the finished run from the fixture of that name.  Every such
script selected for the session starts in its own interpreter as soon as
collection ends, so it runs while the in-process tests do; the fixture
waits for it.  The script, its environment and its interpreter are those
it would have had in a ``subprocess.run`` of its own.
"""

import os
import subprocess
import sys

import pytest

#: the interpreters started for the session, by test node id
_STARTED: dict[str, subprocess.Popen] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "fresh_python(code, *paths): run ``code`` with "
        "``python -c`` in a fresh interpreter, ``paths`` first on its "
        "PYTHONPATH; the ``fresh_python`` fixture returns the finished run")


def _start(code: str, *paths) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in paths] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def pytest_collection_finish(session):
    for item in session.items:
        marker = item.get_closest_marker("fresh_python")
        if marker is not None:
            _STARTED[item.nodeid] = _start(*marker.args)


def pytest_sessionfinish(session):
    for proc in _STARTED.values():
        proc.kill()
        proc.communicate()


@pytest.fixture
def fresh_python(request) -> subprocess.CompletedProcess:
    """The finished run of the test's ``fresh_python`` script."""
    proc = _STARTED.pop(request.node.nodeid)
    stdout, stderr = proc.communicate(timeout=300)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout,
                                       stderr)
