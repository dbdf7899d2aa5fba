"""Set-up probe: interpreter start, `import cartanq` and input generation.

    python3 perfbench/setup_probe.py WORKLOAD SEED COUNT

The benchmark times this process from spawn to exit to measure ``setup_s``.
It prints the fingerprint of the generated inputs, which the benchmark
compares with its own, so the probe provably generated the same inputs.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cartanq  # noqa: E402,F401  (timed on purpose)
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    print(workloads.fingerprint(workload, workloads.INPUTS[workload](seed, count)))
