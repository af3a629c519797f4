"""Every Python block and every command of the CLI block of README.md runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from batchforge.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
CLI_BLOCK = re.search(r"## CLI\n\n```bash\n(.*?)```", README.read_text(), flags=re.S).group(1)
OUTPUT_FLAGS = ("-o",)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_cli_block_runs_in_order(tmp_path, monkeypatch):
    # in order: set-report and export read what train and plan wrote
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BATCHFORGE_SEED", raising=False)
    lines = CLI_BLOCK.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]
    assert {argv[1] for argv in commands} == {"plan", "analyze", "train", "set-report", "export"}
    for argv in commands:
        assert argv[0] == "batchforge"
        assert run(argv[1:]) == 0, argv
        outputs = [argv[i + 1] for i, flag in enumerate(argv) if flag in OUTPUT_FLAGS]
        for name in outputs:
            assert (tmp_path / name).stat().st_size > 0, (argv, name)
