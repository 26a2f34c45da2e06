import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.filterwarnings("ignore::evfeeder.loads.FleetDataWarning")
def test_library_use_example_runs_as_written(capsys):
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    exec(compile(code, f"{README} (Library use)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    assert printed[-1] == "True (19, 4)"  # as the example's last comment says
