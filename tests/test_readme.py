import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    # the documented example must keep working as the library changes
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    kappa, interval, verdict = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(kappa) < 1.0
    assert interval.startswith("(")
    assert verdict == "a-faster"
