import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


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
