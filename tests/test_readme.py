import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import dyuch

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(tmp_path):
    # the tour uses the public names, so a renamed or re-signed one breaks it;
    # dev mode with warnings as errors also fails it on a deprecation or a numpy warning
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    env = dict(os.environ, PYTHONPATH=str(Path(dyuch.__file__).resolve().parents[1]))
    child = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code], cwd=tmp_path,
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1].startswith("2.39655")


def test_cited_module_names_resolve():
    # every `module.name` the README cites names something dyuch.<module> has
    text = README.read_text()
    modules = "dyadic|martingale|carleson|bellman|kernel|extremal|cli"
    cited = sorted(set(re.findall(rf"`({modules})\.([A-Za-z_]\w*)`", text)))
    assert len(cited) >= 4
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"dyuch.{module}"), name)]
    assert missing == []
