"""Traced stand-in for ``python -m flagdomains``.

Usage: python perfbench/shim.py RUN_ID ARG...

Times ``import flagdomains.cli``, wraps the layer functions listed in
``spans.LAYER_FUNCTIONS``, then calls ``flagdomains.cli.main(ARG...)``.
stdout and the exit code are those of the plain command; the spans and the
structure-constant cache counters go to stderr as one final line starting
with ``SPANS_MARKER``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.spans import Tracer  # noqa: E402

SPANS_MARKER = "perfbench-spans "


def main() -> int:
    tracer = Tracer()
    tracer.run = int(sys.argv[1])
    code = 1
    cache = None
    try:
        with tracer.span("cli.import"):
            import flagdomains.cli
        cache = getattr(sys.modules["flagdomains.chevalley"], "structure_constants", None)
        tracer.install()
        try:
            with tracer.span("cli.main"):
                code = flagdomains.cli.main(sys.argv[2:])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        stats = [info.hits, info.misses] if info else [0, 0]
        payload = json.dumps({"spans": tracer.spans, "cache": stats}, separators=(",", ":"))
        sys.stderr.write("\n" + SPANS_MARKER + payload + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
