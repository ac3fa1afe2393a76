"""Run the ``repro`` CLI with the benchmark's layer spans installed.

The traced ``serve-mixed`` run starts the daemon through this wrapper
instead of ``python -m repro`` so the same entry-point patches as in
the benchmark process record spans inside the daemon's job threads.
The spans are written as JSON when the CLI returns::

    PYTHONPATH=src python perfbench/tracedaemon.py --spans-out spans.json \
        serve --port 0 --workers 2
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import SpanRecorder  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print("usage: tracedaemon.py --spans-out PATH <repro args>",
              file=sys.stderr)
        return 2
    from repro.cli import main as repro_main

    recorder = SpanRecorder().install()
    try:
        return repro_main(argv[2:])
    finally:
        recorder.uninstall()
        Path(argv[1]).write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
