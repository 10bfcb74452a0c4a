"""``python -m kinematica``: the ``kinematica`` command."""

import sys

from .cli import main

sys.exit(main())
