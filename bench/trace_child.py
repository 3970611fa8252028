"""Run one toricsym CLI command with the tracer installed, then save the spans.

    python trace_child.py LAUNCH_NS OUT.json analyze FILE

LAUNCH_NS is the monotonic time at which the parent started this process;
the span cli.startup runs from there to the start of the command, so it
covers process start, imports and argument parsing.  The command's own
output goes to standard output as usual.
"""

import json
import sys

launch_ns = int(sys.argv[1])
out_path = sys.argv[2]

import toricsym.cli as cli  # noqa: E402

from tracer import Tracer, cache_counts  # noqa: E402

tracer = Tracer()
tracer.install()
status = cli.main(sys.argv[3:])
tracer.uninstall()
first = min((s[1] for s in tracer.spans if s[3] is None), default=launch_ns)
tracer.spans.append(["cli.startup", launch_ns, first, None, None])
sys.stdout.flush()
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump({"spans": tracer.spans, "counts": tracer.counts, "caches": cache_counts()}, fh)
sys.exit(status)
