"""``python -m blprover``: the command line interface."""

import sys

from .prover import cli_main

sys.exit(cli_main())
