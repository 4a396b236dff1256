"""README's Library section runs as written."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    """Every ```python block under ``## Library``, up to the next section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_library_code_runs():
    blocks = library_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
