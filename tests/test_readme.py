"""The documented public surface: README examples and the package exports."""
import importlib
import re
import types
from pathlib import Path

import casmem

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_python_blocks_run_on_their_own():
    # each block runs in a fresh namespace, so a block that leans on an
    # earlier block's imports or names fails here as it would for a reader
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespaces = []
    for i, block in enumerate(blocks):
        namespaces.append({"__name__": "readme"})
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespaces[-1])
    assert namespaces[0]["result"].half_life == 30
    assert len(namespaces[1]["trajs"]) == 100


def test_all_lists_resolvable_non_module_names():
    assert len(casmem.__all__) == len(set(casmem.__all__))
    for name in casmem.__all__:
        obj = getattr(casmem, name)
        assert not isinstance(obj, types.ModuleType), name


def test_readme_module_table_names_exist():
    # Every backticked bare name (or call, by the name before its "(") in a
    # library module's row is an attribute of that module; dotted names
    # such as file names are left out.
    rows = re.findall(r"^\| `(casmem\.\w+)` \| (.*) \|$", README.read_text(), flags=re.M)
    assert len(rows) >= 7
    for module_name, contents in rows:
        if module_name == "casmem.cli":
            continue
        module = importlib.import_module(module_name)
        for span in re.findall(r"`([^`]+)`", contents):
            name = span.split("(")[0].strip()
            if name.isidentifier():
                assert hasattr(module, name), f"{module_name} has no {name!r}"
