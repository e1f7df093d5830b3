"""``repro-hcmd serve`` with benchmark spans around the server's layers.

Usage: ``python3 perfbench/serve_traced.py SPANS_JSON <serve arguments>``.
Wraps the public entry points (:func:`layers.instrument`), runs the CLI
unchanged, and when the service exits writes the recorded spans and the
moment imports finished to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import layers
    import repro.cli
    from spans import SpanRecorder

    recorder = SpanRecorder()
    layers.instrument(recorder)
    imported = time.monotonic()
    code = repro.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"edges": recorder.to_json(), "import_done": imported}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
