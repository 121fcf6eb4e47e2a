"""``python -m intval``: the ``intval`` command line (see ``intval.cli``)."""

import sys

from .cli import main

sys.exit(main())
