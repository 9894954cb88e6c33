"""The README's Python API example runs against the current signatures."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def api_example():
    section = README.read_text().split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_example_runs(capsys):
    exec(compile(api_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
