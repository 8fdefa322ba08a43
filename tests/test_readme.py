"""The documented public surface: README examples and the package exports."""
import re
import types
from pathlib import Path

import casmem

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert namespace["result"].half_life == 30
    assert len(namespace["trajs"]) == 100


def test_all_lists_resolvable_non_module_names():
    assert len(casmem.__all__) == len(set(casmem.__all__))
    for name in casmem.__all__:
        obj = getattr(casmem, name)
        assert not isinstance(obj, types.ModuleType), name
