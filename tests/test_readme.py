"""The README's library quick start runs, and the claim in each of its
comments holds; the sizes its Determinism section names are the code's."""

import ast
import re
from pathlib import Path

from icci.region import _REACH_PASS
from icci.sweep import _BLOCK

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_claims():
    code = quick_start()
    lines = code.splitlines()
    namespace: dict = {}
    claims = {}   # expression statement -> (its value, its comment)
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            claims[ast.get_source_segment(code, stmt)] = (value, lines[stmt.lineno - 1].partition("#")[2].strip())
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)

    value, comment = claims["icci.contains(inner, (0.5, 2.0, 2.0))"]
    assert value is True and comment == "True"
    value, comment = claims["icci.vertices(inner)"]
    assert value.shape == (16, 3) and comment.startswith("(16, 3) array")
    for expr in ("cert.slack", "per_rate.slack"):
        value, comment = claims[expr]
        assert value >= 0 and comment.startswith(">= 0"), expr
    value, comment = claims["icci.dof_ic(0.6), icci.dof_icci(0.6)"]
    assert value == (0.6, 0.7) and comment.startswith("(0.6, 0.7)")
    value, comment = claims["icci.mi_discrepancy(gains)"]
    assert value < 1e-12 and comment.startswith("~1e-14")


def test_determinism_names_the_block_and_pass_sizes():
    section = README.read_text(encoding="utf-8").split("### Determinism", 1)[1]
    prose = section.split("```", 1)[0]
    assert re.findall(r"blocks of up to (\d+)", prose) == [str(_BLOCK)]
    assert re.findall(r"passes of a fixed size, (\d+) columns", prose) == [str(_REACH_PASS)]
    # no other size, which could go stale unchecked
    assert set(re.findall(r"\b\d+\b", prose)) == {str(_BLOCK), str(_REACH_PASS)}
