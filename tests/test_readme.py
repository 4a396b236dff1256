"""README's Library section runs as written, the APIs it lists as removed are
gone, and every name the package exports is used in it or documented there."""
import ast
import importlib
import pathlib
import pkgutil
import re

import meancert

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = pathlib.Path(meancert.__file__).resolve().parent


def library_section():
    """README's ``## Library`` section, up to the next section."""
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_blocks():
    """Every ```python block of the Library section."""
    return re.findall(r"^```python\n(.*?)^```$", library_section(), re.M | re.S)


def test_library_code_runs():
    blocks = library_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def removed_table():
    return library_section().split("\n| Removed |", 1)[1].split("\n\n", 1)[0]


def removed_names():
    """The names in the first column of the Library section's table of removed APIs."""
    table = removed_table()
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
        # every object of the package that the dotted prefix names, from any
        # module; a prefix "meancert" names the package itself
        owners = modules
        if path[:1] == ["meancert"]:
            owners, path = [meancert], path[1:]
        for part in path:
            owners = [getattr(o, part) for o in owners if hasattr(o, part)]
        assert not [o for o in owners if hasattr(o, last)], f"{name} is still there"


def documented_names():
    """The identifiers of the Library section's code, its blocks and its inline
    spans, leaving out the table of removed APIs."""
    section = library_section().replace(removed_table(), "")
    prose = re.sub(r"^```python\n.*?^```$", "", section, flags=re.M | re.S)
    code = library_blocks() + re.findall(r"`([^`\n]+)`", prose)
    return {name for text in code for name in re.findall(r"[A-Za-z_]\w*", text)}


def package_reads():
    """Every name that a module of the package other than ``__init__`` reads,
    as a name or as an attribute of a module of the package (``scalar.evaluate``);
    a method of the same name (``ctx.nabla``) is another object."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    modules = {p.stem for p in paths}
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    return read


def test_every_export_is_used_or_documented():
    used, documented = package_reads(), documented_names()
    assert "case_by_id" in documented and "hs_norm" not in documented
    unneeded = [name for name in meancert.__all__ if name not in used | documented]
    assert unneeded == [], "exported, but neither used in the package nor in README's Library"
