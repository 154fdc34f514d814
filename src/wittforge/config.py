"""Search budgets: two module constants, fixed for the life of a process.

HEIGHT_BOUND caps the height of every enumeration that looks for a
witness: the sup-norm of candidate integer vectors and the absolute value
of candidate signed squarefree slots.  Heights are measured on integers
after clearing denominators, so it is a plain int.  It is 10**4 unless the
environment variable WITTFORGE_SEARCH_BOUND holds a positive integer, and
it is read once, when this module is first imported; a value that is not a
positive integer is ignored.

FACTOR_BOUND caps trial division in qarith.factor.

A search that runs past either cap raises BoundExceeded rather than
silently answering "no".
"""

import os


def _env_height_bound(default: int = 10**4) -> int:
    raw = os.environ.get("WITTFORGE_SEARCH_BOUND")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


HEIGHT_BOUND = _env_height_bound()
FACTOR_BOUND = 10**6
