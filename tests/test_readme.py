"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order(capsys):
    # the blocks share one namespace, as a reader pasting them in turn would:
    # the positive-reduction example reuses the quick start's a, m and n
    text = README.read_text()
    namespace = {}
    ran = 0
    for match in re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S):
        # pad with newlines so a traceback names the README's own line
        source = "\n" * text.count("\n", 0, match.start(1)) + match.group(1)
        exec(compile(source, str(README), "exec"), namespace)
        ran += 1
    assert ran >= 2
    # the quick start's first print is annotated "# True"
    assert capsys.readouterr().out.splitlines()[0] == "True"
