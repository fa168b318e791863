"""README's CLI examples run as shown: an option renamed or removed while
the README still shows it fails here."""

import shlex
from pathlib import Path

from qfp.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples() -> list[str]:
    """The ``qfp`` lines of the ``sh`` block under ``## CLI``, each line
    that ends in a backslash joined to the next."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("qfp ")]


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    # in order and in one directory: codes show and verify read the file
    # that codes export writes
    monkeypatch.chdir(tmp_path)
    examples = _cli_examples()
    assert examples
    for line in examples:
        assert main(shlex.split(line)[1:]) == 0, line
