"""Saturation-holes smoke: an oversubscribed fabric's holes are refusals.

Usage: python scripts/saturation_holes_smoke.py FAILURE_REPORT

FAILURE_REPORT is the ``failure_report.json`` of a fluid campaign on the
4:1-oversubscribed 512-node leaf-spine preset, which saturates on the FFT
transposes.  Those products must be documented ``unsupported`` holes
(exempt from the failure budget), never silent answers or budget
breaches: every failure is a refusal, and there is at least one.  Exits
non-zero on any violation.
"""

import json
import pathlib
import sys


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    report = json.loads(pathlib.Path(argv[0]).read_text())
    categories = {row["category"] for row in report["failures"]}
    assert categories <= {"unsupported"}, categories
    assert report["failure_count"] > 0, "expected saturation holes"
    print(f"OK: {report['failure_count']} unsupported hole(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
