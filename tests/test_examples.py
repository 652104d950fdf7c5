"""Smoke tests: every shipped example and documented snippet runs.

The examples are part of the public deliverable; each must execute
end-to-end on a clean checkout.  Output is captured and spot-checked for
the one fact each example exists to demonstrate.  README's ``python``
blocks run one by one; the tutorial's build on each other, so they run
concatenated in order.
"""

from __future__ import annotations

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES_DIR = ROOT / "examples"

EXPECTED_SNIPPETS = {
    "quickstart.py": "sender,T7,receiver",
    "mobile_news_delivery.py": "delivery report",
    "context_aware_conference.py": "driving (video dropped)",
    "heterogeneous_devices.py": "Proxy p1's encoder goes offline",
    "adaptive_streaming.py": "re-planning recovered",
    "web_image_adaptation.py": "two-stage composition",
    "algorithm_comparison.py": "QoS greedy",
    "failover_storm.py": "same seed, same digest: True",
    "gateway_quickstart.py": "drained cleanly",
    "policy_fastpath.py": "zero-hop fast path",
}


def test_every_example_is_covered():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXPECTED_SNIPPETS), (
        "examples directory and smoke-test table disagree"
    )


@pytest.mark.parametrize("name", sorted(EXPECTED_SNIPPETS))
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    output = capsys.readouterr().out.lower()
    assert EXPECTED_SNIPPETS[name].lower() in output


def _python_blocks(path: pathlib.Path):
    return re.findall(r"^```python\n(.*?)^```", path.read_text(), re.M | re.S)


README_BLOCKS = _python_blocks(ROOT / "README.md")


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_snippet_runs(index, capsys):
    exec(compile(README_BLOCKS[index], f"README.md block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_tutorial_snippets_run_in_order(capsys):
    blocks = _python_blocks(ROOT / "docs" / "TUTORIAL.md")
    assert len(blocks) == 9
    exec(compile("\n".join(blocks), "docs/TUTORIAL.md", "exec"), {})
    assert capsys.readouterr().out
