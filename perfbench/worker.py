"""Run one certification through ``rigdens.cli.run`` in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds map_text, mode, k, out_dir, trace and src (the directory the
package must be imported from). RESULT receives the exit code, the wall
time of the ``cli.run`` call (imports excluded), the process's peak RSS
and, when traced, the spans and counters. A fresh process per call keeps
peak RSS and the sweep's RSS rise specific to one certification.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import rigdens
    from rigdens import cli

    src = Path(spec["src"]).resolve()
    if src not in Path(rigdens.__file__).resolve().parents:
        print(f"error: rigdens imported from {rigdens.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)

    config = cli.RunConfig(map_text=spec["map_text"], mode=spec["mode"],
                           k=spec["k"], out_dir=spec["out_dir"])
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        rc = cli.run(config)
        certify_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.restore()
    result = {
        "rc": rc,
        "certify_s": certify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": None if tracer is None else tracer.spans,
        "counters": None if tracer is None else tracer.counters,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(1)
    sys.exit(main(sys.argv[1], sys.argv[2]))
