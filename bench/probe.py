"""Set-up probe: import pollctl from the checkout and resolve workload configs.

    python3 bench/probe.py CONFIG [CONFIG ...]

Prints ``ready`` when done.  ``run.py`` times this from process start to
that line, which is the set-up a CLI user pays before the first real call.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(paths: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import pollctl.cli  # noqa: F401  (the entry point imports every layer)
    from pollctl.config import load_config

    for path in paths:
        load_config(path)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
