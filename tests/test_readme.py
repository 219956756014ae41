"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs(capsys):
    """The quick-tour block executes in a fresh namespace and chooses the rank
    its comment gives."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    (block,) = re.findall(r"```python\n(.*?)```", tour[: tour.index("\n## ", 1)], re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["plan"].ranks == ((26,),)
    assert capsys.readouterr().out.splitlines()[-1] == "((26,),)"
