"""Every test that README.md names as the one asserting a stated bound
exists: its file under tests/ and its test function in that file."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# tests/<file>.py::<name>, a parametrize id such as [1024-table0] stripped
_NAMED = sorted(set(re.findall(r"tests/(\w+\.py)::(\w+)", (ROOT / "README.md").read_text())))


def test_readme_names_tests():
    assert len(_NAMED) >= 20, _NAMED


@pytest.mark.parametrize("path, name", _NAMED, ids=[f"{p}::{n}" for p, n in _NAMED])
def test_readme_test_exists(path, name):
    source = ROOT / "tests" / path
    assert source.is_file(), f"README names {path}, which is not in tests/"
    functions = {node.name for node in ast.walk(ast.parse(source.read_text()))
                 if isinstance(node, ast.FunctionDef)}
    assert name in functions, f"README names {path}::{name}, which {path} does not define"
