"""README.md's examples, run as written: a README that drifts from the code fails here."""

import re
import shlex
from pathlib import Path

from dicregion.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block uses the first one's table
        exec(compile(block, "README.md", "exec"), namespace)

    # The example session, on the XOR channel and the uniform distribution
    # of the file-format section.
    session = re.search(r"^Example session:\n\n```\n(.*?)^```", README, re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xor.json").write_text(
        '{"K": 2, "x_alphabet_sizes": [2, 2], "g": [[0, 1], [0, 1]], '
        '"f": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]]}'
    )
    (tmp_path / "uniform.json").write_text('{"p": [[0.5, 0.5], [0.5, 0.5]]}')
    steps = re.findall(r"^\$ dicregion (.*)\n((?:[^$].*\n)*)", session, re.M)
    assert len(steps) == 5
    for command, printed in steps:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == printed, command
