"""The README's quick start runs, and its commented values hold; each
command of its CLI block runs and exits 0; its catalog names are the
catalog's, the flags of its CLI section the parser's and its series-kinds
table the kinds; its Layout block names every module of the package, and every
``<module>.<name>`` it puts in backticks is a name of that module.  Every
benchmark record that README.md or ROADMAP.md names is committed and
parses, and every claim a record makes names what the benchmark measures."""

import argparse
import importlib
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from akrvoro import SERIES_KINDS, catalog_names, lookup
from akrvoro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def section(heading):
    """The README's text under ``heading``, up to the next heading of its
    level or above."""
    level = heading.split(" ", 1)[0]
    text = README.read_text().split(f"\n{heading}\n", 1)[1]
    ends = [m.start() for m in re.finditer(r"^#{1,%d} " % len(level), text, re.M)]
    return text[: min(ends, default=len(text))]


def cli_commands():
    """The argv of each line of the README's CLI block, the first ``sh``
    block after the "## CLI" heading."""
    block = re.search(r"```sh\n(.*?)```", section("## CLI"), re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()]


def test_cli_block_lists_every_subcommand():
    assert [argv[0] for argv in cli_commands()] == [
        "nodes", "eval", "residual", "decompose", "verify",
    ]


def test_every_flag_the_cli_section_names_is_an_option():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section("## CLI")))
    assert named and named <= options, sorted(named - options)


def test_series_kinds_table_lists_the_kinds_in_order():
    rows = re.findall(r"^\| `([^`]+)` \|", section("### Series kinds"), re.M)
    assert tuple(rows) == SERIES_KINDS


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


def package_modules():
    """The names of the package's modules, without the .py."""
    package = README.parent / "src" / "akrvoro"
    return {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}


def test_layout_names_every_module():
    block = re.search(r"\n## Layout\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    named = re.findall(r"^  (\S+\.py) ", block, re.M)
    assert sorted(named) == sorted(f"{module}.py" for module in package_modules())


def module_references():
    """Each distinct ``<module>.<name>`` inside an inline code span of the
    README, ``<module>`` one of the package's modules; a file name such as
    tensor.py is not a reference."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    modules = "|".join(sorted(package_modules()))
    pattern = re.compile(rf"(?<![\w.])({modules})\.(\w+)")
    return sorted({
        ref for span in re.findall(r"`([^`\n]+)`", text)
        for ref in pattern.findall(span) if ref[1] != "py"
    })


def test_module_references_resolve():
    refs = module_references()
    assert refs
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"akrvoro.{module}"), name)]
    assert not missing


def bench_records():
    return sorted(ROOT.glob("BENCH_*.json"))


def test_every_named_bench_record_is_committed_and_parses():
    named = {
        name
        for doc in ("README.md", "ROADMAP.md")
        for name in re.findall(r"BENCH_\d+\.json", (ROOT / doc).read_text())
    }
    assert named
    for name in sorted(named):
        json.loads((ROOT / name).read_text())


def claims(record):
    """Every object stored under a "claim" key, at any depth."""
    if isinstance(record, dict):
        for key, value in record.items():
            if key == "claim" and isinstance(value, dict):
                yield value
            yield from claims(value)
    elif isinstance(record, list):
        for value in record:
            yield from claims(value)


_CLAIM_KEYS = {"metric", "workload", "parent_median", "change_median", "parent_iqr",
               "change_lower_in", "met"}


@pytest.mark.parametrize("path", bench_records(), ids=lambda p: p.name)
def test_each_claim_names_a_metric_and_a_workload_of_the_benchmark(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]}
    workloads = {w["name"] for w in spec["workloads"]}
    for claim in claims(json.loads(path.read_text())):
        assert _CLAIM_KEYS <= set(claim), sorted(_CLAIM_KEYS - set(claim))
        assert claim["metric"] in metrics
        assert claim["workload"] in workloads
