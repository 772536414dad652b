"""`scripts/line_coverage.py`: its line comparison on a small module."""

import importlib.util
from pathlib import Path


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    return spec, module


def test_reports_the_one_line_that_never_ran(tmp_path):
    spec, tool = _load("line_coverage", Path(__file__).resolve().parents[1] / "scripts" / "line_coverage.py")
    spec.loader.exec_module(tool)
    path = tmp_path / "dead.py"
    path.write_text(
        '"""One branch of sign never runs."""\n'
        "\n"
        "\n"
        "def sign(x):\n"
        "    if x < 0:\n"
        "        return -1\n"
        "    return 1\n"
        "\n"
        "\n"
        "SIGNS = [sign(x) for x in range(3)]\n"
    )
    spec, module = _load("dead", path)
    _, ran = tool.trace([path], lambda: spec.loader.exec_module(module))
    assert module.SIGNS == [1, 1, 1]
    assert tool.missed(path, ran[path]) == [(6, "return -1")]
