"""A deadline for every test.

A test that runs past DEADLINE_S seconds, its setup and teardown included,
ends the run with exit 1 and the traceback of every thread on the
terminal's stderr; the test's own frame names it. A fraction-free update
that loses its exact division doubles the length of the entries at every
step, and the run would otherwise go on for hours. The process then sits
inside one big-int multiplication, where Python handles no signal, so a
timer that raises in the test never fires; faulthandler's watchdog is a C
thread and fires there too.
"""

import contextlib
import faulthandler
import os

import pytest

#: Seconds one test may take. The slowest takes about 2.2 s on a 2-vCPU
#: x86-64 host with Python 3.11.
DEADLINE_S = 60

# A copy of fd 2 taken with capture suspended. Under pytest's default fd
# capture, fd 2 is a capture file while a test runs, and what is written
# there is lost when the watchdog ends the process.
STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    capman = config.pluginmanager.getplugin("capturemanager")
    with capman.global_and_fixture_disabled() if capman else contextlib.nullcontext():
        config.stash[STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR_FD])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    faulthandler.dump_traceback_later(DEADLINE_S, exit=True, file=item.config.stash[STDERR_FD])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
