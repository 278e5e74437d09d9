import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_order_ceiling_smoke(capsys):
    order_ceiling = load_tool("order_ceiling")
    assert order_ceiling.main(["0.05", "--family", "dyck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [
        "family", "pattern", "order", "total_s", "grammar_s", "iteration_s", "quadratic_s",
    ]
    assert len(lines) == 2
    assert lines[1].split()[:2] == ["dyck", "UUU"]


def test_readme_quick_start():
    # Run README.md's python blocks in order, in one namespace, and check
    # each expression whose trailing comment is a Python literal against it.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    namespace, checked = {}, 0
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            try:
                expected = ast.literal_eval(comment)
            except (ValueError, SyntaxError):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
            assert eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace) == expected
            checked += 1
    assert checked == 2
