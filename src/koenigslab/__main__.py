"""``python -m koenigslab``: the command-line interface, the same as
``python -m koenigslab.cli`` and the installed ``koenigslab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
