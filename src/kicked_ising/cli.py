"""Command-line entry point.

Exit codes: 0 success, 1 an unexpected error (it propagates out of ``main``
and Python prints the traceback), 2 configuration error (including argparse
failures), 3 capacity error (the largest array of the mode's path would
exceed ``states.MAX_ARRAY_BYTES`` at a requested chain length or horizon),
4 I/O error while writing results, 5 a pool worker process died (``--jobs``
> 1).  After any of them but 0, ``run_sweep`` has left no CSV.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from .states import CapacityError
from .sweep import ConfigError, parse_config, run_sweep


def _pool_died(exc: BaseException) -> bool:
    """Whether ``exc`` is a broken process pool.

    Its module is looked up, not imported: only a sweep that ran a pool has imported it, and
    importing it at start-up would cost every launch.
    """
    pool = sys.modules.get("concurrent.futures.process")
    return pool is not None and isinstance(exc, pool.BrokenProcessPool)


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
    except RuntimeError as exc:
        if not _pool_died(exc):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 5

    failed = sum(1 for row in result.rows if row.get("error"))
    status = f", {failed} point(s) recorded an error" if failed else ""
    print(f"wrote {len(result.rows)} row(s) to {result.path}{status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
