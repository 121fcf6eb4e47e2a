"""Let the CLI subprocesses that some tests start import the intval they test.

pytest's ``pythonpath`` setting only reaches this process, so a checkout
that was never installed would otherwise fail ``python -m intval.cli``.
"""

import os

import intval

_SRC = os.path.dirname(os.path.dirname(intval.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
