"""`python -m pseudoboson ...` runs the command line of `pseudoboson.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
