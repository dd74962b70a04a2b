"""The traced form of ``python -m mlpoly.cli``: runs one CLI command under
the span tracer and writes its spans to a file.

    python3 perfbench/tracechild.py <trace file stem> <mlpoly arguments...>
"""

import sys

import benchenv

benchenv.use_checkout()

import mlpoly.cli  # noqa: E402  (needs the checkout on sys.path first)

import spans  # noqa: E402

tracer = spans.Tracer().install()
tracer.op = 0
try:
    code = mlpoly.cli.run(sys.argv[2:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
    tracer.write(sys.argv[1], argv=sys.argv[2:])
sys.exit(code)
