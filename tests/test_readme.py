"""The README's library quickstart runs and gives the values its comments state."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _run_quickstart():
    """Run the ```python block under "## Library quickstart" statement by
    statement; return its namespace and the value of each bare expression,
    keyed by its source text."""
    section = README.read_text().split("## Library quickstart\n", 1)[1]
    source = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[text] = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return namespace, values


def test_readme_quickstart_gives_the_values_in_its_comments():
    namespace, values = _run_quickstart()
    assert values["ec.inseparability(cm)"] == pytest.approx(1.0, abs=1e-12)
    assert values["ec.epr_paradox(cm)"] == pytest.approx(2.56, abs=1e-12)
    fidelity = values["ec.pure_mixed_fidelity(epr, ec.clone_state(clones, 1)).value"]
    assert fidelity == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert namespace["source"].shape == (200, 4, 4)
    assert namespace["out"].shape == (200, 8, 8)
    stacked = values["ec.inseparability(ec.correlation_matrix_from_cov(out, (0, 1)))"]
    twice = 2.0 * namespace["grid"]
    assert np.all(np.abs(stacked - twice) <= 1e-12 * twice)
