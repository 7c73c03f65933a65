"""``python -m repro`` with the benchmark's layer wrappers installed.

Usage: python3 e2ebench/e2e_serve.py DUMP_DIR serve [serve options]

The traced ``service-jobs`` passes start the server through this
launcher: the server process and the pool workers it forks write their
per-layer totals to ``DUMP_DIR`` (see :mod:`e2e_layers`).
"""

import sys
from pathlib import Path

from e2e_layers import LayerClock


def main(argv) -> int:
    dump_dir, *repro_argv = argv
    clock = LayerClock()
    clock.install()
    clock.dump_here(Path(dump_dir))
    from repro.__main__ import main as repro_main
    return repro_main(repro_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
