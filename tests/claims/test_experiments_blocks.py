"""EXPERIMENTS.md's Table I and Fig. 9 blocks are the artifacts' own text."""

from pathlib import Path

import pytest

from repro.analysis.report import fig9, table1

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def code_block(heading):
    """The first fenced block under the ``## <heading>`` section."""
    text = EXPERIMENTS.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}") :]
    start = section.index("```\n") + len("```\n")
    return section[start : section.index("\n```", start)]


@pytest.mark.parametrize(
    "heading, build", [("Table I", table1), ("Fig. 9", fig9)], ids=["table1", "fig9"]
)
def test_doc_block_is_the_module_text(paper_pipeline, heading, build):
    assert code_block(heading) == build(paper_pipeline)[1]
