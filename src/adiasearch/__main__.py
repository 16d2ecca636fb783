"""``python -m adiasearch``: the command-line front end of `adiasearch.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
