"""Command-line entry point.

Exit codes: 0 success, 2 configuration error (including argparse failures),
3 capacity error (requested chain length above the mode's cap), 4 I/O error
while writing results, 5 a pool worker process died (``--jobs`` > 1); no CSV
is written then.
"""

from __future__ import annotations

import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence

from .states import CapacityError
from .sweep import ConfigError, parse_config, run_sweep


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        result = run_sweep(parse_config(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 4
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 5

    failed = sum(1 for row in result.rows if row.get("error"))
    status = f", {failed} point(s) recorded an error" if failed else ""
    print(f"wrote {len(result.rows)} row(s) to {result.path}{status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
