"""How a command process runs and ends: `cli.run` turns the cyclic collector
off and skips interpreter teardown, but not what it reports.

Each case runs a fresh interpreter with block-buffered standard streams
(`PYTHONUNBUFFERED` removed), so that stdout is written only when the
process flushes it on the way out.
"""

import errno
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stylegroup.cli import main

ROOT = Path(__file__).resolve().parents[1]
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
STDOUT_LOST = re.compile(r"Exception ignored in: <_io\.TextIOWrapper name='<stdout>' mode='w' encoding='[^']+'>")

# `run` as a script would call it, with an exit callback registered before the
# command, a `__del__` that only interpreter teardown runs, and a note of how
# the process left (`sys.exit` raises SystemExit; `os._exit` raises nothing).
RUN = """
import atexit
import os
import sys

class Marker:
    def __del__(self, write=os.write):
        write(2, b"teardown\\n")

marker = Marker()
atexit.register(os.write, 2, b"atexit\\n")
if sys.argv[1] == "traced":
    sys.settrace(lambda frame, event, arg: None)
from stylegroup.cli import main, run
try:
    if sys.argv[1] == "main":
        sys.exit(main(sys.argv[2:]))
    run(sys.argv[2:])
except SystemExit as exc:
    os.write(2, b"sys.exit %d\\n" % exc.code)
    raise
"""


# `run` with `main` replaced by a note of whether the collector is on.
COLLECTOR = """
import gc
import os
import stylegroup.cli as cli
cli.main = lambda argv: os.write(1, b"before %d, command %d\\n" % (enabled, gc.isenabled())) and 0
enabled = gc.isenabled()
cli.run([])
"""

# A command run with the collector off, then the count of what a collection finds.
GARBAGE = """
import gc
import sys
gc.disable()
from stylegroup.cli import main
assert main(sys.argv[1:]) == 0
print(gc.collect())
"""


def _diagnostics(capsys):
    """What `validate-rules` prints to stderr, run in this process."""
    assert main(["validate-rules"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0 errors, 1 warnings\n"
    return captured.err.splitlines()


def _spawn(argv, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=ENV, cwd=ROOT)


def _lost_stdout(done, diagnostics, error, number):
    """The interpreter's own report of a failed final flush: no traceback, exit 120."""
    *lines, ignored, reason = done.stderr.splitlines()
    assert lines == diagnostics
    assert STDOUT_LOST.fullmatch(ignored), ignored
    assert reason == f"{error}: [Errno {number}] {os.strerror(number)}"
    assert done.returncode == 120


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_to_a_full_device_is_reported_as_by_the_interpreter(capsys):
    with open("/dev/full", "w") as full:
        done = _spawn(["-m", "stylegroup.cli", "validate-rules"], stdout=full)
    _lost_stdout(done, _diagnostics(capsys), "OSError", errno.ENOSPC)


def test_stdout_to_a_closed_pipe_is_reported_as_by_the_interpreter(capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its one flush must fail
    try:
        done = _spawn(["-m", "stylegroup.cli", "validate-rules"], stdout=write_end)
    finally:
        os.close(write_end)
    _lost_stdout(done, _diagnostics(capsys), "BrokenPipeError", errno.EPIPE)


def test_a_stdout_closed_from_the_start_is_no_error(capsys):
    """`sys.stdout` is None then; the interpreter ends such a run with exit 0, and so does `run`."""
    done = subprocess.run(["sh", "-c", 'exec "$0" -m stylegroup.cli validate-rules >&-', sys.executable],
                          stderr=subprocess.PIPE, text=True, env=ENV, cwd=ROOT)
    assert done.returncode == 0
    assert done.stderr.splitlines() == _diagnostics(capsys)


def test_cprofile_still_prints_its_table():
    done = _spawn(["-m", "cProfile", "-m", "stylegroup.cli", "validate-rules"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("0 errors, 1 warnings\n")
    assert re.search(r"\d+ function calls .*in [\d.]+ seconds", done.stdout), done.stdout


def test_a_plain_run_skips_teardown_but_runs_exit_callbacks_once():
    done = _spawn(["-c", RUN, "run", "validate-rules"])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 errors, 1 warnings\n"
    assert done.stderr.splitlines()[-1:] == ["atexit"]
    assert "teardown" not in done.stderr and "sys.exit" not in done.stderr


def test_the_marker_sees_a_normal_exit():
    """Without `run`, teardown runs the marker: its absence above means something."""
    done = _spawn(["-c", RUN, "main", "validate-rules"])
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-3:] == ["sys.exit 0", "atexit", "teardown"]


def test_a_traced_run_ends_through_sys_exit():
    done = _spawn(["-c", RUN, "traced", "validate-rules"])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 errors, 1 warnings\n"
    assert done.stderr.splitlines()[-3:] == ["sys.exit 0", "atexit", "teardown"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_flush_falls_back_and_runs_exit_callbacks_once(capsys):
    with open("/dev/full", "w") as full:
        done = _spawn(["-c", RUN, "run", "validate-rules"], stdout=full)
    assert done.returncode == 120
    lines = done.stderr.splitlines()
    assert lines.count("atexit") == 1
    assert lines[len(_diagnostics(capsys)):][:2] == ["atexit", "sys.exit 0"]
    assert "teardown" in lines and "Traceback" not in done.stderr


def test_argparse_exits_by_the_normal_path():
    done = _spawn(["-c", RUN, "run", "no-such-command"])
    assert done.returncode == 2
    assert "invalid choice" in done.stderr
    assert done.stderr.splitlines()[-3:] == ["sys.exit 2", "atexit", "teardown"]


def test_the_console_script_ends_through_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"stylegroup": "stylegroup.cli:run"}


def test_run_executes_the_command_without_the_collector():
    done = _spawn(["-c", COLLECTOR])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before 1, command 0\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_its_caller_set_it(enabled, capsys):
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        assert main(["validate-rules"]) == 0
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_a_commands_cyclic_garbage_does_not_grow_with_the_cohort(tmp_path):
    """With the collector off for a whole command, only what the command leaves is there to find."""
    found = []
    for count in (8, 80):
        spec, sim = tmp_path / f"cohort{count}.json", tmp_path / f"sim{count}"
        signature = ["reactive", "sensory", "visual", "consecutive"]
        spec.write_text(json.dumps({"cohort": [{"signature": signature, "count": count}]}))
        assert main(["simulate", "--cohort-spec", str(spec), "--seed", "1", "--out", str(sim)]) == 0
        argv = ["classify", "--behaviors", str(sim / "behaviors.csv"), "--out", str(sim / "out")]
        done = _spawn(["-c", GARBAGE, *argv])
        assert done.returncode == 0, done.stderr
        found.append(int(done.stdout.splitlines()[-1]))
    assert found[0] == found[1] > 0
