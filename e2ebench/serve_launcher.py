"""Run ``repro serve`` with the layer tracer installed.

Usage::

    python3 e2ebench/serve_launcher.py --spans-out OUT -- <repro serve arguments>

Installs :class:`tracing.LayerTracer` (service layers included), calls
``repro.service.cli.main`` with the remaining arguments, and when the
server returns writes every span to ``OUT.npz`` and the per-name summary
to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import common


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    common.use_checkout_package()
    from tracing import LayerTracer, SpanRecorder

    from repro.service.cli import main as serve_main

    recorder = SpanRecorder()
    tracer = LayerTracer(recorder)
    tracer.install(service=True)
    recorder.start_window()
    try:
        code = serve_main(serve_args)
    finally:
        recorder.stop_window()
        tracer.uninstall()
        recorder.dump(args.spans_out.with_suffix(".npz"))
        args.spans_out.with_suffix(".json").write_text(
            json.dumps(recorder.summary())
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
