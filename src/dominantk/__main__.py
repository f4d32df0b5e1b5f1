"""``python -m dominantk``: the command line of :mod:`dominantk.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
