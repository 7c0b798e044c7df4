"""README's Python examples run as written and print what they claim, and
its YAML configs pass validation."""

import contextlib
import io
import re
from pathlib import Path

import yaml

from codedmem import analysis

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue() == "durable 2647\n"


def test_yaml_blocks_validate():
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        analysis.validate_config(yaml.safe_load(block))
