import sys
from pathlib import Path

# make perfbench/oracles.py importable as ``oracles``: the mpmath reference
# sums, defined once for the suite and the benchmark
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
