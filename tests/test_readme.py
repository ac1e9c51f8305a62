"""README's "Library use" examples run as they are written, and its flag list is the CLI's."""

import argparse
import re
from pathlib import Path

import pytest

from kfmetric.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    """The fenced python blocks of the "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_library_use_examples_run(tmp_path, monkeypatch):
    # the examples read data/features.csv and write model.json in the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--identities", "40", "--out", "data/features.csv"]) == 0
    blocks = _library_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md Library use block {k + 1}", "exec"), namespace)
    assert namespace["D"].shape == (2, 4)
    assert len(namespace["cv"].accuracies.pis) == 4
    assert (tmp_path / "model.json").exists()


def _subparser(command: str) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("command", ["train", "evaluate", "cv", "sweep"])
def test_settings_flags_line_lists_each_run_flag(command):
    # the "Flags:" line of "Settings" lists the run flags; --model and --p-values are per command
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"^Flags: `([^`]*)`", text, flags=re.M).group(1).split()
    own = {"-h", "--help", "--model", "--p-values"}
    flags = [s for a in _subparser(command)._actions for s in a.option_strings if s not in own]
    assert sorted(listed) == sorted(flags)
