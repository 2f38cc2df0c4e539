import importlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import dyuch
from dyuch.carleson import measure_to_json, random_balanced_measure
from dyuch.cli import main
from dyuch.dyadic import tree_to_json
from dyuch.martingale import analytic_to_json, random_analytic, random_sliced

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


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # each line of the README's sh block, through the console script's main, on depth-4 inputs;
    # conjugate --emit pair.json rewrites the pair that check-3e reads after it
    text = README.read_text()
    start = text.index("```sh\ndyuch ") + len("```sh\n")
    lines = text[start:text.index("```", start)].splitlines()
    assert len(lines) == 9
    monkeypatch.delenv("DYUCH_MAX_DEPTH", raising=False)
    monkeypatch.chdir(tmp_path)
    inputs = {
        "pair.json": analytic_to_json(random_analytic(random.Random(0), 4)),
        "mu.json": measure_to_json(random_balanced_measure(random.Random(0), 4)),
        "tree.json": tree_to_json(random_sliced(random.Random(0), 4)),
    }
    for name, obj in inputs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "dyuch"
        assert main(argv[1:]) == 0, (line, capsys.readouterr())
        written = [argv[i + 1] for i, flag in enumerate(argv)
                   if flag in ("--out", "--emit", "--csv")]
        assert all((tmp_path / path).exists() for path in written), line
