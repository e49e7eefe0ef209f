"""The README's examples: its Python sessions and its command lines print what it shows."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from qvm import cli

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def same_words(got, shown):
    """Equal up to runs of whitespace, as ``doctest.NORMALIZE_WHITESPACE``
    compares; ``show`` separates its columns with tabs."""
    return got.split() == shown.split()


@pytest.mark.parametrize("session", fenced("python"), ids=["bell", "teleport"])
def test_python_session_prints_what_it_shows(session):
    test = doctest.DocTestParser().get_doctest(session, {}, "README.md", "README.md", 0)
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_command_lines_print_what_they_show(tmp_path, monkeypatch, capsys):
    # each "$ qvm ..." line runs in one fresh directory, in order, so the
    # emit-ir line writes the file that the run-ir line reads
    (block,) = fenced("console")
    commands = re.split(r"^\$ ", block, flags=re.M)[1:]
    assert commands
    monkeypatch.chdir(tmp_path)
    for command in commands:
        line, _, shown = command.partition("\n")
        argv = shlex.split(line)
        assert argv[0] == "qvm"
        assert cli.main(argv[1:]) == 0, line
        assert same_words(capsys.readouterr().out, shown), line
    assert (tmp_path / "teleport.json").is_file()
    assert (tmp_path / "h.svg").read_text(encoding="utf-8").startswith("<svg")
