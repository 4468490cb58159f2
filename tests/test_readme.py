"""README's Python examples run as written: every block, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "True\n"
    modes = namespace["device"].layout.mode_count
    assert namespace["intensities"].shape == (1000, modes)
    assert namespace["repeats"].shape == (1, 500, modes)
