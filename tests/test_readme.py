import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_comments(capsys):
    # each print line's output is its trailing comment, up to the first ": "
    code = quick_start()
    expected = [line.split("# ", 1)[1].split(": ", 1)[0] for line in code.splitlines() if line.startswith("print(")]
    exec(compile(code, str(README), "exec"), {})
    assert expected and capsys.readouterr().out.splitlines() == expected
