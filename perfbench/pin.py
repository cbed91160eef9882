"""Write ``reference.json``: each workload command's exit code and stdout digest.

    python3 perfbench/pin.py

The pins define what ``run.py`` accepts as correct, so they are taken once,
from the commit that defined the benchmark, and changed only on purpose
when a command's output is meant to change.  Search commands are pinned at
the CLI's default seed; their digest leaves out the echoed seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workload import WORKLOADS, command_argv, import_gassner, make_cold, output_digest, run_command

DEFAULT_SEARCH_SEED = 20041101


def main() -> int:
    cli = import_gassner()
    pins = {}
    for templates in WORKLOADS.values():
        for template in templates:
            make_cold()
            rc, out, error = run_command(cli, command_argv(template, DEFAULT_SEARCH_SEED))
            if error is not None:
                print(f"error: {' '.join(template)}: {error}", file=sys.stderr)
                return 1
            pins[" ".join(template)] = {"rc": rc, "digest": output_digest(template, out)}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
