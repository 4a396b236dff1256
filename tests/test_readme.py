"""README's Library section runs as written, and the APIs it lists as removed are gone."""
import importlib
import pathlib
import pkgutil
import re

import meancert

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


def removed_names():
    """The names in the first column of the Library section's table of removed APIs."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("\n| Removed |", 1)[1].split("\n\n", 1)[0]
    cells = re.findall(r"^\|([^|]*)\|", table, re.M)
    return [name for cell in cells for name in re.findall(r"`([^`]*)`", cell)]


def test_removed_names_are_gone():
    names = removed_names()
    assert "opmeans.harmonic" in names and "scalar.find_non_dominance" in names
    modules = [meancert] + [importlib.import_module(f"meancert.{m.name}")
                            for m in pkgutil.iter_modules(meancert.__path__)]
    for name in names:
        *path, last = name.split(".")
        assert all(part.isidentifier() for part in [*path, last]), name
        # every object of the package that the dotted prefix names, from any module
        owners = modules
        for part in path:
            owners = [getattr(o, part) for o in owners if hasattr(o, part)]
        assert not [o for o in owners if hasattr(o, last)], f"{name} is still there"
