"""The command-line contract of every ``python -m repro`` subcommand.

Parametrized over ``repro.__main__.COMMANDS``, so a command added to the
table is covered here without a new test. Each run goes through the
dispatcher in-process; a ``SystemExit`` raised by argparse counts as the
exit status.
"""

import pytest

from repro.__main__ import COMMANDS, main
from repro.parallel import resolve_jobs


def _status(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_exits_zero(command, capsys):
    assert _status([command, "--help"]) == 0
    assert f"usage: python -m repro {command}" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unknown_flag_is_a_usage_error(command, capsys):
    assert _status([command, "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["perf", "-j", "abc"],
        ["loadgen", "-j", "abc"],
        ["bench", "-j", "abc", "--list"],
        ["chaos", "--soak", "1", "-j", "abc"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_bad_job_count_is_a_usage_error(argv, capsys):
    assert _status(argv) == 2
    assert "argument -j/--jobs" in capsys.readouterr().err


def test_unknown_command_lists_the_table(capsys):
    assert _status(["nope"]) == 2
    out = capsys.readouterr().out
    assert "unknown command 'nope'" in out
    assert all(f"{command} ..." in out for command in COMMANDS)


def test_jobs_takes_a_count_zero_or_auto():
    auto = resolve_jobs("auto")
    assert resolve_jobs("0") == auto
    assert resolve_jobs("3") == 3
    for bad in ("abc", "-1", "1.5"):
        with pytest.raises(ValueError):
            resolve_jobs(bad)
