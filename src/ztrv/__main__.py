"""``python -m ztrv``: the same command line as the ``ztrv`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
