"""One traced CLI request: ``python3 perfbench/tracechild.py <op> [flags]``.

Imports ``ultraconv.cli``, installs the same wrappers as a traced in-process
round, calls ``cli.main`` with the given arguments (payload on stdin, report
on stdout) and writes its per-layer totals to stderr as one line starting
with ``perfbench-trace ``.  The exit status is ``cli.main``'s.
"""
import json
import sys
import time

import spans

t0 = time.perf_counter()
import ultraconv.cli  # noqa: E402  (timed as cli.import_s)
import_s = time.perf_counter() - t0

tracer = spans.Tracer()
tracer.import_s = import_s
spans.install(tracer, {n: m for n, m in sys.modules.items()
                       if n == "ultraconv" or n.startswith("ultraconv.")})
tracer.begin_op()
code = ultraconv.cli.main(sys.argv[1:])
sys.stdout.flush()
print("perfbench-trace " + json.dumps(tracer.totals()), file=sys.stderr)
sys.exit(code)
