"""Compare the shards of two cache directories byte for byte.

Usage: python scripts/compare_caches.py A B

Every ``*.json`` file in either directory is a shard unless its name is
in ``RESERVED_FILES`` (the failure report and the telemetry reports).
Each shard must exist in both directories with identical bytes.  Shards
are written with sorted keys, so two campaigns that computed the same
products compare equal whatever their worker count or landing order.

Prints one line per missing or differing shard and exits 1, or prints a
summary and exits 0.  Two directories without a single shard also exit 1:
a campaign that produced nothing proves nothing.  So does a directory that
still holds ``journal.jsonl``: its campaign was killed before its last
stage flushed, so its shards lack products the journal holds.
"""

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Set

from repro.core.experiments.cache import JOURNAL_NAME, RESERVED_FILES


def shard_names(directory: Path) -> Set[str]:
    """Names of the shard files in ``directory``."""
    return {
        path.name for path in directory.glob("*.json") if path.name not in RESERVED_FILES
    }


def compare(first: Path, second: Path) -> List[str]:
    """One message per shard that is missing from a side or differs."""
    problems = []
    for name in sorted(shard_names(first) | shard_names(second)):
        missing = [str(directory) for directory in (first, second) if not (directory / name).is_file()]
        if missing:
            problems.append(f"{name}: missing from {missing[0]}")
        elif (first / name).read_bytes() != (second / name).read_bytes():
            problems.append(f"{name}: differs")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="a cache directory")
    parser.add_argument("second", type=Path, help="the cache directory to compare it with")
    args = parser.parse_args(argv)
    unfinished = [
        directory for directory in (args.first, args.second) if (directory / JOURNAL_NAME).exists()
    ]
    for directory in unfinished:
        print(f"{directory}: {JOURNAL_NAME} present, campaign did not finish", file=sys.stderr)
    if unfinished:
        return 1
    shards = shard_names(args.first) | shard_names(args.second)
    if not shards:
        print(f"no shards in {args.first} or {args.second}", file=sys.stderr)
        return 1
    problems = compare(args.first, args.second)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"OK: {len(shards)} shard(s) byte-identical in {args.first} and {args.second}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
