"""Child-process entry points of the benchmark.

    probe.py setup <workload>          time `import katolab` plus the warm-up

``setup`` prints the seconds from just before ``import katolab`` to the end of
the workload's warm-up.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, not timed)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    if argv[0] == "setup":
        start = perf_counter()
        import katolab

        workloads.WORKLOADS[argv[1]].warm_up(katolab)
        print(repr(perf_counter() - start))
        return 0
    raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
