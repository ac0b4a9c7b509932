"""`python -m voterchain`: the command-line harness of `voterchain.cli`."""

import sys

from .cli import main

# guarded, so a worker process that re-imports the main module runs nothing
if __name__ == "__main__":
    sys.exit(main())
