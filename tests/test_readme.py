import re
import shlex
from pathlib import Path

import pytest

from grouptrellis.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_as_documented():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    namespace = {}
    exec(block, namespace)
    assert namespace["outcome"].tolist() == [1, 1, 0]


def _cli_examples():
    """Arguments of every `grouptrellis ...` command in the README's sh blocks."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["grouptrellis"]:
                examples.append(argv[1:])
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_shows_every_subcommand():
    assert [argv[0] for argv in CLI_EXAMPLES] == ["app", "roc", "genmat", "oracle-check"]


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=lambda argv: argv[0])
def test_cli_example_runs_as_documented(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
    if "--output" in argv:
        assert (tmp_path / argv[argv.index("--output") + 1]).stat().st_size > 0
