"""The README's quick start runs, and its commented values hold; each
command of its CLI block runs and exits 0; its catalog names are the
catalog's; its Layout block names every module of the package."""

import math
import re
import shlex
from pathlib import Path

import pytest

from akrvoro import catalog_names, lookup
from akrvoro.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The README's first python code block, run; its names as a dict."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_quick_start_runs_and_its_comments_hold():
    ns = quick_start()
    av, f = ns["av"], ns["f"]
    assert av.apply(ns["e2"], 16, 2, 0.4) == pytest.approx(0.16, abs=1e-14)
    estimate = av.extrapolate(ns["series"]).limit_estimate
    assert estimate == pytest.approx(av.limit(f, (0.5, 0.5), 2), rel=1e-2)
    assert av.limit(f, (0.5, 0.5), 2) == pytest.approx(-0.25 * math.e, rel=1e-14)
    d = ns["d"]
    assert d.e_term + d.f_term + d.g_residual == pytest.approx(d.total, abs=1e-12)


def cli_commands():
    """The argv of each line of the README's CLI block, the first ``sh``
    block after the "## CLI" heading."""
    text = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()]


def test_cli_block_lists_every_subcommand():
    assert [argv[0] for argv in cli_commands()] == [
        "nodes", "eval", "residual", "lemma", "decompose", "verify",
    ]


@pytest.mark.parametrize("argv", cli_commands(), ids=lambda argv: argv[0])
def test_cli_block_commands_exit_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_catalog_names_sentence_is_the_catalog():
    sentence = re.search(r"Catalog names: (.*?)\.\s", README.read_text(), re.S).group(1)
    names = tuple(re.findall(r"`([^`]+)`", sentence))
    assert names == catalog_names()
    for name in names:
        lookup(name.replace("monomial(p,q)", "monomial(2,3)"))


def test_layout_names_every_module():
    block = re.search(r"\n## Layout\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    named = re.findall(r"^  (\S+\.py) ", block, re.M)
    package = README.parent / "src" / "akrvoro"
    modules = {p.name for p in package.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert sorted(named) == sorted(modules)
