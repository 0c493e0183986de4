"""Package layering: the cost predictor is a leaf module, and answering a
query never loads the benchmark layer."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports, at any depth
    (function-level imports included; relative imports resolved)."""
    package = ".".join(path.relative_to(SRC).parent.parts)
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ".".join(parts[: len(parts) - node.level + 1]) if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            names.add(module)
            if node.module is None:
                names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


class TestLayering:
    def test_first_query_leaves_bench_unloaded(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import repro\n"
            "repro.Machine(8).distribute(np.arange(1000.0)).median()\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.bench'))\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_core_and_planner_never_import_bench(self):
        for package in ("core", "planner"):
            for path in sorted((SRC / "repro" / package).rglob("*.py")):
                bad = {m for m in _imported_modules(path)
                       if m == "repro.bench" or m.startswith("repro.bench.")}
                assert not bad, f"{path.relative_to(SRC)} imports {bad}"

    def test_cost_predictor_is_a_leaf(self):
        inside = {m for m in _imported_modules(SRC / "repro/selection/cost.py")
                  if m.startswith("repro")}
        assert inside <= {"repro.errors", "repro.machine.cost_model",
                          "repro.machine.topology"}, inside
