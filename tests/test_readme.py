"""The README's library quick start runs as written, and the names it
cites from the package exist."""

import importlib
import pathlib
import pkgutil
import re

import twostrain

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "E0 Verdict.UNSTABLE Verdict.UNSTABLE",
        "E2 Verdict.LOCALLY_STABLE Verdict.LOCALLY_STABLE",
    ]
    assert lines[2].startswith("State(S=")


def test_inline_references_exist():
    # every `module.name` of a package module in one-line inline code, as
    # in `simulate._kernel(4)` or `twostrain.benchmarks.build_scenario`
    modules = "|".join(info.name for info in pkgutil.iter_modules(twostrain.__path__))
    reference = re.compile(r"(?<![\w.])(?:twostrain\.)?(%s)\.(\w+)" % modules)
    cited = [
        (module, name)
        for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
        for module, name in reference.findall(span)
    ]
    assert len(cited) >= 10  # the pattern finds the citations
    missing = [
        "%s.%s" % (module, name)
        for module, name in cited
        if not hasattr(importlib.import_module("twostrain." + module), name)
    ]
    assert missing == []
