"""Run a command and fail when its peak resident set size exceeds a ceiling.

``python tools/peak_rss.py --ceiling-mb MB -- COMMAND [ARG ...]``

The command runs as a child process.  When it has exited, the child's
peak RSS is read from ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` — the
largest peak among the waited-for children, and this wrapper waits for
one — and printed.  The exit code is the child's when it failed, 1 when
its peak exceeded the ceiling, else 0.  ``ru_maxrss`` is read as KiB,
the unit Linux reports it in.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
from typing import List, Optional


def peak_rss_mb() -> float:
    """Peak RSS of the largest waited-for child, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ceiling-mb", type=float, required=True,
                        help="fail when the child's peak RSS exceeds this many MiB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    code = subprocess.run(command).returncode
    peak = peak_rss_mb()
    print(f"peak RSS: {peak:.1f} MiB (ceiling {args.ceiling_mb:.1f} MiB)", file=sys.stderr)
    if code != 0:
        return code
    if peak > args.ceiling_mb:
        print(f"error: peak RSS {peak:.1f} MiB exceeds the ceiling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
