"""``python -m kzfox``: the command-line interface of :mod:`kzfox.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
