"""The CLI's bytes, pinned: every argv of ``tests/cli_pins.py`` and every demo.

``tests/cli_pins.json`` holds, per argv, the exit code, stdout and stderr of
an in-process ``mlpoly.cli.run``, and per demo its stdout as a script, each
short output in full and each long one as its sha256, length and edges.  A
change that moves any byte of them fails here; a change meant to move some
regenerates the file with ``tests/cli_pins.py`` and names each moved argv.
"""

import json
from pathlib import Path

import pytest

import cli_pins

PINNED = json.loads((Path(__file__).parent / "cli_pins.json").read_text(encoding="utf-8"))
ARGV_CASES = [case for case in PINNED if "argv" in case]
DEMO_CASES = [case for case in PINNED if "demo" in case]


def test_the_file_pins_the_committed_list():
    assert [case["argv"] for case in ARGV_CASES] == cli_pins.ARGVS
    assert [case["demo"] for case in DEMO_CASES] == [demo.name for demo in cli_pins.DEMOS]


@pytest.mark.parametrize("case", ARGV_CASES,
                         ids=[f"{i}-{case['argv'][0]}" for i, case in enumerate(ARGV_CASES)])
def test_argv_bytes(case):
    assert {"argv": case["argv"], **cli_pins.cli_outcome(case["argv"])} == case


@pytest.mark.parametrize("case", DEMO_CASES, ids=[case["demo"] for case in DEMO_CASES])
def test_demo_stdout(case):
    demo = cli_pins.ROOT / "demos" / case["demo"]
    assert {"demo": case["demo"], **cli_pins.demo_outcome(demo)} == case
